//! Offline stand-in for `crossbeam-channel`: multi-producer multi-consumer
//! channels backed by a `Mutex<VecDeque>` + two `Condvar`s.
//!
//! The surface mirrors the upstream API this workspace uses — [`bounded`],
//! [`unbounded`], cloneable [`Sender`]/[`Receiver`], `send`/`try_send`,
//! `recv`/`try_recv`/`recv_timeout` — with upstream's disconnect semantics:
//! a channel is disconnected when all handles on the other side have been
//! dropped, after which sends fail immediately and receives drain the
//! remaining buffered messages before failing.
//!
//! Upstream uses a lock-free queue; this stand-in trades throughput for
//! simplicity. The workspace enqueues at *request* granularity (one message
//! per verification job), so the mutex never sits on a hot inner loop.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Creates a channel holding at most `cap` in-flight messages.
///
/// `send` blocks while the channel is full; `try_send` fails instead —
/// that is the backpressure primitive the server's dispatch queue builds on.
/// A capacity of zero is bumped to one (upstream's zero-capacity channel
/// is a rendezvous; nothing in this workspace uses one).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap.max(1)))
}

/// Creates a channel with no capacity bound; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        // a poisoned lock only means a sender/receiver panicked while
        // holding it; the queue itself is still structurally sound
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sending half of a channel. Clone freely; the channel disconnects
/// when the last clone drops.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Clone freely; messages are delivered
/// to exactly one receiver each.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`]: all receivers are gone. The
/// unsendable message is handed back.
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
pub enum TrySendError<T> {
    /// The channel is at capacity; the message is handed back.
    Full(T),
    /// All receivers are gone; the message is handed back.
    Disconnected(T),
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently buffered.
    Empty,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv`]: the channel is empty and all
/// senders are gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

impl<T> Sender<T> {
    /// Sends a message, blocking while the channel is full.
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] (with the message) if every receiver has been
    /// dropped.
    pub fn send(&self, message: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        loop {
            if state.receivers == 0 {
                return Err(SendError(message));
            }
            match self.shared.cap {
                Some(cap) if state.queue.len() >= cap => {
                    state = self.shared.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
                }
                _ => break,
            }
        }
        state.queue.push_back(message);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Sends a message without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TrySendError::Full`] when the channel is at capacity and
    /// [`TrySendError::Disconnected`] when every receiver has been dropped;
    /// both hand the message back.
    pub fn try_send(&self, message: T) -> Result<(), TrySendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(TrySendError::Disconnected(message));
        }
        if let Some(cap) = self.shared.cap {
            if state.queue.len() >= cap {
                return Err(TrySendError::Full(message));
            }
        }
        state.queue.push_back(message);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// `true` when no message is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when a bounded channel is at capacity.
    pub fn is_full(&self) -> bool {
        match self.shared.cap {
            Some(cap) => self.shared.lock().queue.len() >= cap,
            None => false,
        }
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`RecvError`] once the channel is empty and every sender has
    /// been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(message) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Ok(message);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state = self.shared.not_empty.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Receives a message without blocking.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is buffered,
    /// [`TryRecvError::Disconnected`] when additionally every sender is
    /// gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        if let Some(message) = state.queue.pop_front() {
            drop(state);
            self.shared.not_full.notify_one();
            return Ok(message);
        }
        if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receives a message, blocking at most `timeout`.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time,
    /// [`RecvTimeoutError::Disconnected`] once the channel is empty and
    /// every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(message) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Ok(message);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            let (guard, result) = self
                .shared
                .not_empty
                .wait_timeout(state, remaining)
                .unwrap_or_else(|e| e.into_inner());
            state = guard;
            if result.timed_out() && state.queue.is_empty() {
                return Err(RecvTimeoutError::Timeout);
            }
        }
    }

    /// Number of messages currently buffered.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// `true` when no message is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let last = state.senders == 0;
        drop(state);
        if last {
            // wake receivers so they observe the disconnect
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receivers -= 1;
        let last = state.receivers == 0;
        drop(state);
        if last {
            // wake blocked senders so they observe the disconnect
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").field("len", &self.len()).finish()
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").field("len", &self.len()).finish()
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "Full(..)"),
            TrySendError::Disconnected(_) => write!(f, "Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "sending on a full channel"),
            TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
        }
    }
}

impl<T> std::error::Error for TrySendError<T> {}

impl<T> TrySendError<T> {
    /// Recovers the message that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(message) | TrySendError::Disconnected(message) => message,
        }
    }

    /// `true` for [`TrySendError::Full`].
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "receiving on an empty channel"),
            TryRecvError::Disconnected => {
                write!(f, "receiving on an empty, disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                write!(f, "channel is empty and disconnected")
            }
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn messages_arrive_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert!(tx.is_full());
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn dropping_senders_disconnects() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7)); // buffered messages still drain
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn dropping_receivers_disconnects() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert!(matches!(tx.send(1), Err(SendError(1))));
        assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
    }

    #[test]
    fn blocked_sender_wakes_when_space_frees() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let producer = thread::spawn(move || tx.send(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        producer.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn mpmc_distributes_all_messages_exactly_once() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 250;
        let (tx, rx) = bounded(8);
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            producers.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    tx.send(p * PER_PRODUCER + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = consumers.into_iter().flat_map(|c| c.join().unwrap()).collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }
}
