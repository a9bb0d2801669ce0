//! Recovery machinery for the supervised serving runtime: the retry /
//! quarantine policy and the batch dispatch queue that supports
//! re-queuing.
//!
//! The runtime's failure model distinguishes three layers:
//!
//! * **transient array faults** (one ABFT checksum mismatch, one
//!   crash) — the batch is re-queued and retried with bounded backoff,
//!   producing bit-exact output on a clean pass;
//! * **persistent array faults** (consecutive strikes reaching
//!   [`RecoveryPolicy::quarantine_after`]) — the array is quarantined,
//!   its worker's cluster re-plans onto the healthy subset, and the
//!   degraded capacity is reflected in admission estimates;
//! * **worker death** (panic) — the supervisor restarts the worker; the
//!   in-flight batch's requests fail with a typed
//!   [`WorkerLost`](crate::ServeError::WorkerLost) rather than a hung
//!   client.
//!
//! [`BatchQueue`] replaces a plain MPSC channel for batch dispatch
//! because recovery needs an operation channels lack: a worker that hit
//! a transient fault must put the batch *back* without deadlocking —
//! [`BatchQueue::requeue`] is front-of-queue and never blocks, even at
//! capacity (re-queued work was already admitted once; refusing it
//! would drop accepted requests). It also counts the consumers parked
//! in [`BatchQueue::pop`], so the batcher can seal a batch at the
//! moment a worker is free to take it ([`BatchQueue::wait_idle`]).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Retry, backoff and quarantine policy for the serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per batch before its requests fail with the worker's
    /// error. The total attempt budget is `1 + max_retries`.
    pub max_retries: u32,
    /// Base backoff slept before re-queuing a failed batch; attempt `k`
    /// (1-based) sleeps `k × backoff`, capped at 20 × `backoff`.
    pub backoff: Duration,
    /// Consecutive strikes (detected faults without an intervening
    /// clean run) after which an array is quarantined.
    pub quarantine_after: u32,
}

impl RecoveryPolicy {
    /// Serving defaults: three retries, 1 ms base backoff, quarantine
    /// on the second consecutive strike.
    pub fn new() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(1),
            quarantine_after: 2,
        }
    }

    /// The backoff before re-queueing attempt `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        self.backoff.saturating_mul(attempt.clamp(1, 20))
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::new()
    }
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers blocked in `pop` right now.
    parked: usize,
}

impl<T> QueueState<T> {
    /// True when some parked consumer has no queued item coming to it.
    fn idle(&self) -> bool {
        self.parked > self.items.len()
    }
}

/// A bounded MPMC queue of dispatched batches with three operations a
/// recovery-capable pool needs: blocking bounded [`push`](Self::push)
/// (backpressure toward the batcher), non-blocking front-of-queue
/// [`requeue`](Self::requeue) (retry without deadlock), and blocking
/// [`pop`](Self::pop) that drains remaining items after
/// [`close`](Self::close) before reporting shutdown. Producers can also
/// block until a consumer is idle ([`wait_idle`](Self::wait_idle)). All
/// internal locks recover from poisoning: the queue state is a plain
/// `VecDeque` and a parked-consumer count, valid whatever a panicking
/// thread was doing around it.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    /// Signalled when an item arrives or the queue closes (wakes `pop`).
    available: Condvar,
    /// Signalled when an item leaves (wakes bounded `push`).
    space: Condvar,
    /// Signalled when a consumer parks in `pop` or the queue closes
    /// (wakes `wait_idle`).
    idle: Condvar,
}

impl<T> BatchQueue<T> {
    /// A queue holding at most `capacity` items (min 1) under `push`.
    pub fn new(capacity: usize) -> Self {
        BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                parked: 0,
            }),
            capacity: capacity.max(1),
            available: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends `item`, blocking while the queue is at capacity.
    /// Returns `Err(item)` if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut state = self.lock();
        while state.items.len() >= self.capacity && !state.closed {
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.closed {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Puts `item` at the *front* of the queue, never blocking and
    /// ignoring capacity: retried work was admitted once already and
    /// jumps ahead of newer batches, bounding its extra latency. Even a
    /// closed queue accepts a requeue — the items behind `close` are
    /// still being drained, and dropping a retry would drop accepted
    /// requests.
    pub fn requeue(&self, item: T) {
        let mut state = self.lock();
        state.items.push_front(item);
        drop(state);
        self.available.notify_one();
    }

    /// Removes the front item, blocking while the queue is open and
    /// empty. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.space.notify_one();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state.parked += 1;
            self.idle.notify_all();
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// Blocks until a consumer is parked in [`pop`](Self::pop) with no
    /// queued item to take — a worker that would start the next pushed
    /// item at once — or until the queue closes. Returns `false` when
    /// it returned because the queue closed.
    pub fn wait_idle(&self) -> bool {
        let mut state = self.lock();
        while !state.idle() && !state.closed {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        !state.closed
    }

    /// Closes the queue: pushes fail, pops drain the backlog then
    /// return `None`. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
        self.space.notify_all();
        self.idle.notify_all();
    }

    /// Number of queued items right now.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn fifo_order_with_requeue_at_front() {
        let q = BatchQueue::new(8);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.requeue(0);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_reports_shutdown() {
        let q = BatchQueue::new(8);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(9), Err(9), "closed queue rejects pushes");
        q.requeue(0); // retries still land
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "stays closed");
    }

    #[test]
    fn requeue_never_blocks_at_capacity() {
        let q = BatchQueue::new(1);
        q.push(1).unwrap();
        let started = Instant::now();
        q.requeue(0); // over capacity, must not block
        assert!(started.elapsed() < Duration::from_millis(100));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn bounded_push_blocks_until_pop() {
        let q = Arc::new(BatchQueue::new(1));
        q.push(1).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(2))
        };
        // Give the producer time to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer is blocked, not queued");
        assert_eq!(q.pop(), Some(1));
        assert!(producer.join().unwrap().is_ok());
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BatchQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
    }

    #[test]
    fn wait_idle_blocks_until_a_consumer_parks() {
        let q = Arc::new(BatchQueue::<u32>::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_idle())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "no consumer yet: still waiting");
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        assert!(waiter.join().unwrap(), "a parked consumer is idle");
        // A requeued batch satisfies the parked consumer, which is then
        // no longer idle.
        assert!(q.wait_idle());
        q.requeue(5);
        assert_eq!(consumer.join().unwrap(), Some(5));
        assert!(!q.lock().idle());
    }

    #[test]
    fn wait_idle_returns_on_close() {
        let q = Arc::new(BatchQueue::<u32>::new(4));
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.wait_idle())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(!waiter.join().unwrap(), "closed, not idle");
    }

    #[test]
    fn backoff_scales_and_caps() {
        let p = RecoveryPolicy::new();
        assert_eq!(p.backoff_for(1), p.backoff);
        assert_eq!(p.backoff_for(3), p.backoff * 3);
        assert_eq!(p.backoff_for(1000), p.backoff * 20, "capped");
    }
}
