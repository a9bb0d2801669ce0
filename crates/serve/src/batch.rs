//! Dynamic batching: coalescing queued requests into one cluster
//! execution.
//!
//! Batching amortizes per-layer configuration and filter traffic across
//! requests — the same effect the paper reports for OSC/WS ("energy
//! consumption improves significantly with batch sizes larger than 1",
//! Section VII-B) — at the cost of queueing latency. Batches are formed
//! when a worker can take them: a batch closes when it reaches
//! `max_batch` requests, or once its first request has waited
//! `max_wait` *and* a worker is idle. While every worker is busy the
//! batch stays open and absorbs new arrivals, so load alone fills
//! batches; an idle worker is never kept waiting for company it does
//! not need.

use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// Bounds on how long and how wide a forming batch may grow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests coalesced into one execution.
    pub max_batch: usize,
    /// How long the first request of a batch waits for company before
    /// the batch may close short of `max_batch` (it then closes once a
    /// worker is idle). The default is zero: an idle worker takes
    /// whatever is queued at once, and batches still fill under load
    /// because a batch stays open while every worker is busy. Set it to
    /// buy the Section VII-B batch energy amortization at low load,
    /// where requests would otherwise run alone, at the price of up to
    /// `max_wait` of extra latency.
    pub max_wait: Duration,
}

impl BatchPolicy {
    /// A policy that never waits: every request executes alone
    /// (batch size 1).
    pub fn unbatched() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_wait: Duration::ZERO,
        }
    }
}

impl Default for BatchPolicy {
    /// Up to 8 requests per batch, no coalescing wait.
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_wait: Duration::ZERO,
        }
    }
}

/// Collects the next batch from `rx` under `policy`.
///
/// Blocks until at least one item arrives, then takes further items
/// until the batch is full, or until `max_wait` has passed and
/// `wait_idle` has returned. `wait_idle` blocks until a worker is free
/// to run the batch (or the pool is gone); items that arrive meanwhile
/// join the batch. Returns `None` once the channel is disconnected
/// *and* empty — the shutdown signal.
pub fn collect_batch<T>(
    rx: &Receiver<T>,
    policy: &BatchPolicy,
    mut wait_idle: impl FnMut(),
) -> Option<Vec<T>> {
    let first = rx.recv().ok()?;
    let deadline = Instant::now() + policy.max_wait;
    let mut batch = vec![first];
    let mut waited = false;
    while batch.len() < policy.max_batch.max(1) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if !remaining.is_zero() {
            match rx.recv_timeout(remaining) {
                Ok(item) => batch.push(item),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            continue;
        }
        // Deadline passed: take what is queued, and once nothing is,
        // hold the batch open until a worker can start it.
        match rx.try_recv() {
            Ok(item) => batch.push(item),
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) if waited => break,
            Err(TryRecvError::Empty) => {
                wait_idle();
                waited = true;
            }
        }
    }
    Some(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A worker is always idle: the batch seals as soon as nothing more
    /// is queued.
    fn idle() {}

    #[test]
    fn fills_up_to_max_batch_from_queued_items() {
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        };
        assert_eq!(collect_batch(&rx, &policy, idle), Some(vec![0, 1, 2, 3]));
        assert_eq!(collect_batch(&rx, &policy, idle), Some(vec![4, 5, 6, 7]));
    }

    #[test]
    fn unbatched_policy_takes_one_item() {
        let (tx, rx) = mpsc::channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(
            collect_batch(&rx, &BatchPolicy::unbatched(), idle),
            Some(vec![1])
        );
        assert_eq!(
            collect_batch(&rx, &BatchPolicy::unbatched(), idle),
            Some(vec![2])
        );
    }

    #[test]
    fn zero_wait_takes_only_already_queued_items() {
        let (tx, rx) = mpsc::channel();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let policy = BatchPolicy {
            max_batch: 8,
            max_wait: Duration::ZERO,
        };
        // Both items are queued before collection begins, so a zero-wait
        // policy still drains them without blocking.
        assert_eq!(collect_batch(&rx, &policy, idle), Some(vec![1, 2]));
    }

    #[test]
    fn disconnect_before_any_item_signals_shutdown() {
        let (tx, rx) = mpsc::channel::<u32>();
        drop(tx);
        assert_eq!(collect_batch(&rx, &BatchPolicy::default(), idle), None);
    }

    #[test]
    fn disconnect_mid_batch_returns_partial_batch() {
        let (tx, rx) = mpsc::channel();
        tx.send(7).unwrap();
        drop(tx);
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        };
        assert_eq!(collect_batch(&rx, &policy, idle), Some(vec![7]));
        assert_eq!(collect_batch(&rx, &policy, idle), None);
    }

    #[test]
    fn zero_wait_absorbs_arrivals_while_no_worker_is_idle() {
        let (tx, rx) = mpsc::channel();
        tx.send(0).unwrap();
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::ZERO,
        };
        // Every worker is busy until these arrive: they join the open
        // batch, up to `max_batch`.
        let busy = || (1..8).for_each(|i| tx.send(i).unwrap());
        assert_eq!(collect_batch(&rx, &policy, busy), Some(vec![0, 1, 2, 3]));
        // A full batch closes without waiting for a worker.
        let full = || panic!("a full batch needs no idle worker");
        assert_eq!(collect_batch(&rx, &policy, full), Some(vec![4, 5, 6, 7]));
    }

    #[test]
    fn past_max_wait_a_partial_batch_waits_for_a_worker() {
        let (tx, rx) = mpsc::channel();
        tx.send(0).unwrap();
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(5),
        };
        let mut waits = 0;
        let busy = || {
            waits += 1;
            tx.send(1).unwrap();
        };
        assert_eq!(collect_batch(&rx, &policy, busy), Some(vec![0, 1]));
        assert_eq!(waits, 1, "the idle wait runs once, after max_wait");
    }

    #[test]
    fn deadline_closes_a_partial_batch() {
        let (tx, rx) = mpsc::channel();
        tx.send(1).unwrap();
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(10),
        };
        let start = Instant::now();
        let batch = collect_batch(&rx, &policy, idle).unwrap();
        assert_eq!(batch, vec![1]);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline must bound the wait"
        );
        drop(tx);
    }
}
