//! The ready queue: earliest-deadline-first with priority tiers and
//! aging, arbitrated across tenants by deficit round robin.
//!
//! Dispatch order composes three policies, strongest first:
//!
//! 1. **Priority tiers.** The globally lowest *effective* tier goes
//!    first. An entry's effective tier starts at its submitted tier and
//!    drops one level per configured aging interval spent waiting, so
//!    low-priority work is delayed under contention but never starved.
//! 2. **Deficit round robin across tenants.** Among tenants holding
//!    work at the winning tier, a classic DRR pass picks the lane:
//!    each top-up round credits `quantum × weight`, each dispatch costs
//!    one credit, so backlogged tenants' throughput shares converge to
//!    their weight ratio.
//! 3. **EDF within the lane.** The chosen tenant dispatches its
//!    earliest-deadline entry (deadline-free entries sort last, FIFO by
//!    submission among themselves).
//!
//! A full queue sheds by rank, not arrival: an incoming entry that
//! outranks (strictly lower effective tier than) the worst queued entry
//! evicts it; otherwise the incoming entry is rejected. Entries whose
//! deadline passes while queued are drained as `expired` at dispatch —
//! they cost a queue slot while waiting but never reach an array.
//!
//! All mutation takes an explicit `now_ns` stamp (the telemetry epoch
//! timeline), so ordering, aging and expiry are deterministic in tests;
//! only the blocking [`ReadyQueue::next_batch`] touches the wall clock,
//! and only for its batch-formation timeout — mirroring
//! [`collect_batch`](crate::batch::collect_batch)'s semantics.

use crate::batch::BatchPolicy;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One queued entry.
#[derive(Debug)]
struct Entry<T> {
    item: T,
    tier: u8,
    deadline_ns: Option<u64>,
    enqueued_ns: u64,
    seq: u64,
}

impl<T> Entry<T> {
    /// Effective tier after aging: one level of promotion per
    /// `aging_ns` spent waiting (aging_ns = 0 disables promotion).
    fn eff_tier(&self, now_ns: u64, aging_ns: u64) -> u8 {
        if aging_ns == 0 {
            return self.tier;
        }
        let waited = now_ns.saturating_sub(self.enqueued_ns);
        let promoted = (waited / aging_ns).min(u64::from(self.tier));
        self.tier - promoted as u8
    }

    /// Dispatch key within a lane: lower sorts first.
    fn key(&self, now_ns: u64, aging_ns: u64) -> (u8, u64, u64) {
        (
            self.eff_tier(now_ns, aging_ns),
            self.deadline_ns.unwrap_or(u64::MAX),
            self.seq,
        )
    }
}

/// One tenant's lane: its pending entries and DRR credit.
#[derive(Debug)]
struct Lane<T> {
    entries: Vec<Entry<T>>,
    weight: f64,
    deficit: f64,
}

// Derived `Default` would demand `T: Default`; lanes never hold a
// default item, so implement it by hand.
impl<T> Default for Lane<T> {
    fn default() -> Self {
        Lane {
            entries: Vec::new(),
            weight: 1.0,
            deficit: 0.0,
        }
    }
}

#[derive(Debug)]
struct Inner<T> {
    lanes: Vec<Lane<T>>,
    len: usize,
    seq: u64,
    cursor: usize,
    closed: bool,
}

/// Outcome of a successful [`ReadyQueue::push`].
#[derive(Debug, PartialEq)]
pub enum Pushed<T> {
    /// Queued; no one was displaced.
    Queued,
    /// Queued by evicting this lower-ranked victim (shed it).
    Displaced(T),
}

/// Why a [`ReadyQueue::push`] failed; the item comes back.
#[derive(Debug, PartialEq)]
pub enum PushError<T> {
    /// Queue full and the entry outranked nothing.
    Full(T),
    /// Queue closed for shutdown.
    Closed(T),
}

/// One dispatched entry's provenance, alongside the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Popped {
    /// Lane (tenant index) the entry came from.
    pub lane: usize,
    /// Whether the entry's deadline had already passed at dispatch.
    pub expired: bool,
}

/// A batch drained by [`ReadyQueue::next_batch`]: dispatchable entries
/// plus the ones whose deadline expired in queue.
#[derive(Debug)]
pub struct Drained<T> {
    /// Entries to execute, in dispatch order.
    pub batch: Vec<T>,
    /// Entries shed at dispatch: their deadline passed while queued.
    pub expired: Vec<T>,
}

/// The multi-tenant ready queue (see the module docs for the dispatch
/// discipline).
#[derive(Debug)]
pub struct ReadyQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
    quantum: f64,
    aging_ns: u64,
}

impl<T> ReadyQueue<T> {
    /// A queue bounding `capacity` entries, crediting `quantum ×
    /// weight` per DRR round, promoting one tier per `aging_ns` waited
    /// (0 disables aging).
    pub fn new(capacity: usize, quantum: f64, aging_ns: u64) -> ReadyQueue<T> {
        ReadyQueue {
            inner: Mutex::new(Inner {
                lanes: Vec::new(),
                len: 0,
                seq: 0,
                cursor: 0,
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            quantum: quantum.max(1e-6),
            aging_ns,
        }
    }

    /// Queued entries right now.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("ready queue poisoned").len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item` on tenant lane `lane` (its registry index) at
    /// submitted tier `tier`, refreshing the lane's DRR `weight`. On a
    /// full queue the entry evicts the worst queued entry if it
    /// strictly outranks it (lower effective tier), else bounces.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] or [`PushError::Closed`], returning the item.
    pub fn push(
        &self,
        item: T,
        lane: usize,
        weight: f64,
        tier: u8,
        deadline_ns: Option<u64>,
        now_ns: u64,
    ) -> Result<Pushed<T>, PushError<T>> {
        let mut inner = self.inner.lock().expect("ready queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.lanes.len() <= lane {
            inner.lanes.resize_with(lane + 1, Lane::default);
        }
        inner.lanes[lane].weight = weight.max(1e-3);
        let mut displaced = None;
        if inner.len >= self.capacity {
            match self.worst_locked(&inner, now_ns) {
                Some((victim_lane, pos, victim_tier)) if tier < victim_tier => {
                    let entry = inner.lanes[victim_lane].entries.swap_remove(pos);
                    inner.len -= 1;
                    displaced = Some(entry.item);
                }
                _ => return Err(PushError::Full(item)),
            }
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.lanes[lane].entries.push(Entry {
            item,
            tier,
            deadline_ns,
            enqueued_ns: now_ns,
            seq,
        });
        inner.len += 1;
        self.available.notify_one();
        Ok(match displaced {
            Some(victim) => Pushed::Displaced(victim),
            None => Pushed::Queued,
        })
    }

    /// The worst-ranked queued entry: highest effective tier, then
    /// latest deadline, then newest. Returns `(lane, position, tier)`.
    fn worst_locked(&self, inner: &Inner<T>, now_ns: u64) -> Option<(usize, usize, u8)> {
        inner
            .lanes
            .iter()
            .enumerate()
            .flat_map(|(l, lane)| {
                lane.entries
                    .iter()
                    .enumerate()
                    .map(move |(p, e)| (l, p, e.key(now_ns, self.aging_ns)))
            })
            .max_by_key(|&(_, _, key)| key)
            .map(|(l, p, key)| (l, p, key.0))
    }

    /// Dispatches one entry per the tier → DRR → EDF discipline.
    /// Non-blocking; `None` when empty.
    pub fn pop(&self, now_ns: u64) -> Option<(T, Popped)> {
        let mut inner = self.inner.lock().expect("ready queue poisoned");
        self.pop_locked(&mut inner, now_ns)
    }

    fn pop_locked(&self, inner: &mut Inner<T>, now_ns: u64) -> Option<(T, Popped)> {
        if inner.len == 0 {
            return None;
        }
        // The winning tier: globally lowest effective tier on offer.
        let best_tier = inner
            .lanes
            .iter()
            .flat_map(|l| l.entries.iter())
            .map(|e| e.eff_tier(now_ns, self.aging_ns))
            .min()
            .expect("len > 0");
        // DRR among the lanes competing at that tier. Each failed full
        // scan credits every competing lane, so the loop terminates:
        // some deficit reaches 1.0 within ⌈1/(quantum·min weight)⌉
        // rounds.
        loop {
            let n = inner.lanes.len();
            let mut competing = false;
            for off in 0..n {
                let idx = (inner.cursor + off) % n;
                let lane = &inner.lanes[idx];
                if !lane
                    .entries
                    .iter()
                    .any(|e| e.eff_tier(now_ns, self.aging_ns) == best_tier)
                {
                    continue;
                }
                competing = true;
                if lane.deficit < 1.0 {
                    continue;
                }
                let lane = &mut inner.lanes[idx];
                lane.deficit -= 1.0;
                let pos = lane
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.key(now_ns, self.aging_ns))
                    .map(|(p, _)| p)
                    .expect("competing lane is non-empty");
                let entry = lane.entries.swap_remove(pos);
                if lane.entries.is_empty() {
                    // Classic DRR: an emptied lane forfeits its credit,
                    // so idle tenants cannot hoard bandwidth.
                    lane.deficit = 0.0;
                }
                inner.len -= 1;
                // Stay on this lane while its credit lasts.
                inner.cursor = idx;
                let expired = entry.deadline_ns.is_some_and(|d| d <= now_ns);
                return Some((entry.item, Popped { lane: idx, expired }));
            }
            debug_assert!(competing, "best_tier came from a queued entry");
            // Top-up round for every lane competing at the winning
            // tier; rotate the cursor so equal credits alternate lanes.
            for lane in inner.lanes.iter_mut() {
                if lane
                    .entries
                    .iter()
                    .any(|e| e.eff_tier(now_ns, self.aging_ns) == best_tier)
                {
                    lane.deficit += self.quantum * lane.weight;
                }
            }
            inner.cursor = (inner.cursor + 1) % n.max(1);
        }
    }

    /// Blocks for the next batch under `policy`, stamping pops with
    /// `now()` (epoch nanoseconds). Mirrors
    /// [`collect_batch`](crate::batch::collect_batch): waits for the
    /// first entry, then drains until the batch is full, or until
    /// `max_wait` has passed and `wait_idle` (which blocks until a
    /// worker is free) has returned. Entries queued while it waits stay
    /// ranked here and join the batch when it seals. Entries that
    /// expired in queue are split out and do not count toward the
    /// batch. Returns `None` once closed *and* empty.
    pub fn next_batch(
        &self,
        policy: &BatchPolicy,
        now: impl Fn() -> u64,
        mut wait_idle: impl FnMut(),
    ) -> Option<Drained<T>> {
        let max_batch = policy.max_batch.max(1);
        let mut inner = self.inner.lock().expect("ready queue poisoned");
        loop {
            while inner.len == 0 {
                if inner.closed {
                    return None;
                }
                inner = self.available.wait(inner).expect("ready queue poisoned");
            }
            let deadline = Instant::now() + policy.max_wait;
            let mut batch = Vec::new();
            let mut expired = Vec::new();
            let mut waited = false;
            loop {
                while batch.len() < max_batch {
                    match self.pop_locked(&mut inner, now()) {
                        Some((item, info)) if info.expired => expired.push(item),
                        Some((item, _)) => batch.push(item),
                        None => break,
                    }
                }
                // Only-expired drains return at once: their clients
                // should hear the rejection without waiting on a worker.
                if batch.len() >= max_batch || inner.closed || waited || batch.is_empty() {
                    break;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    // Hold the batch open, unlocked so submitters can
                    // still push, until a worker can start it.
                    drop(inner);
                    wait_idle();
                    inner = self.inner.lock().expect("ready queue poisoned");
                    waited = true;
                } else {
                    inner = self
                        .available
                        .wait_timeout(inner, remaining)
                        .expect("ready queue poisoned")
                        .0;
                }
            }
            if !batch.is_empty() || !expired.is_empty() {
                return Some(Drained { batch, expired });
            }
            // Nothing materialized (raced pops / spurious wake): loop.
        }
    }

    /// Closes the queue: further pushes fail, blocked consumers drain
    /// what is queued and then observe shutdown.
    pub fn close(&self) {
        self.inner.lock().expect("ready queue poisoned").closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn queue(capacity: usize) -> ReadyQueue<u64> {
        ReadyQueue::new(capacity, 1.0, 0)
    }

    #[test]
    fn single_lane_pops_in_edf_order() {
        let q = queue(16);
        for (item, deadline) in [(1u64, 500), (2, 100), (3, 900), (4, 300)] {
            q.push(item, 0, 1.0, 1, Some(deadline), 0).unwrap();
        }
        // No-deadline entries sort after every deadline, FIFO among
        // themselves.
        q.push(5, 0, 1.0, 1, None, 0).unwrap();
        q.push(6, 0, 1.0, 1, None, 0).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(10).map(|(i, _)| i)).collect();
        assert_eq!(order, vec![2, 4, 1, 3, 5, 6]);
        assert!(q.is_empty());
    }

    #[test]
    fn priority_tiers_outrank_deadlines() {
        let q = queue(16);
        q.push(1, 0, 1.0, 2, Some(10), 0).unwrap(); // low tier, urgent
        q.push(2, 0, 1.0, 0, Some(900), 0).unwrap(); // high tier, relaxed
        q.push(3, 0, 1.0, 1, Some(500), 0).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(5).map(|(i, _)| i)).collect();
        assert_eq!(order, vec![2, 3, 1], "tier first, EDF within tier");
    }

    #[test]
    fn drr_shares_follow_weights() {
        let q = queue(256);
        // Lane 0 weight 3, lane 1 weight 1, same tier, no deadlines.
        for i in 0..60u64 {
            q.push(i, 0, 3.0, 1, None, 0).unwrap();
            q.push(1000 + i, 1, 1.0, 1, None, 0).unwrap();
        }
        let mut counts = [0usize; 2];
        for _ in 0..40 {
            let (_, info) = q.pop(0).unwrap();
            counts[info.lane] += 1;
        }
        assert_eq!(counts[0] + counts[1], 40);
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (ratio - 3.0).abs() <= 0.45,
            "3:1 weights → {counts:?} (ratio {ratio})"
        );
    }

    #[test]
    fn aging_promotes_waiting_low_tier_work() {
        let aging_ns = 100;
        let q = ReadyQueue::<u64>::new(64, 1.0, aging_ns);
        q.push(7, 0, 1.0, 2, None, 0).unwrap(); // low tier at t=0
        q.push(8, 0, 1.0, 0, None, 0).unwrap(); // high tier
                                                // At t=10 the high-tier entry still wins.
        assert_eq!(q.pop(10).unwrap().0, 8);
        q.push(9, 0, 1.0, 0, None, 250).unwrap();
        // At t=250 the old low-tier entry has aged 2 levels → tier 0,
        // and its seq is older than the fresh high-tier entry.
        assert_eq!(q.pop(250).unwrap().0, 7, "aged entry dispatches first");
        assert_eq!(q.pop(250).unwrap().0, 9);
    }

    #[test]
    fn full_queue_sheds_by_rank() {
        let q = queue(2);
        q.push(1, 0, 1.0, 2, None, 0).unwrap();
        q.push(2, 0, 1.0, 1, None, 0).unwrap();
        // Equal-tier entry bounces: it outranks nothing.
        assert_eq!(q.push(3, 0, 1.0, 2, None, 0), Err(PushError::Full(3)));
        // Higher-priority entry evicts the worst (tier 2) entry.
        assert_eq!(q.push(4, 0, 1.0, 0, None, 0), Ok(Pushed::Displaced(1)));
        assert_eq!(q.len(), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop(0).map(|(i, _)| i)).collect();
        assert_eq!(order, vec![4, 2]);
    }

    #[test]
    fn expired_entries_surface_at_dispatch() {
        let q = queue(16);
        q.push(1, 0, 1.0, 1, Some(50), 0).unwrap();
        q.push(2, 0, 1.0, 1, Some(500), 0).unwrap();
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::ZERO,
        };
        let drained = q.next_batch(&policy, || 100, || {}).unwrap();
        assert_eq!(drained.expired, vec![1], "deadline 50 expired at t=100");
        assert_eq!(drained.batch, vec![2]);
    }

    #[test]
    fn zero_wait_batch_absorbs_arrivals_while_no_worker_is_idle() {
        let q = queue(16);
        q.push(0, 0, 1.0, 1, None, 0).unwrap();
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::ZERO,
        };
        // Arrivals while every worker is busy join the open batch, up to
        // `max_batch`; the rest wait for the next one.
        let busy = || {
            for i in 1..6u64 {
                q.push(i, 0, 1.0, 1, None, 0).unwrap();
            }
        };
        let drained = q.next_batch(&policy, || 0, busy).unwrap();
        assert_eq!(drained.batch, vec![0, 1, 2, 3]);
        let drained = q.next_batch(&policy, || 0, || {}).unwrap();
        assert_eq!(drained.batch, vec![4, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn next_batch_blocks_then_drains_and_close_shuts_down() {
        let q = std::sync::Arc::new(queue(16));
        let policy = BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(50),
        };
        let consumer = {
            let q = std::sync::Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(d) = q.next_batch(&policy, || 0, || {}) {
                    seen.extend(d.batch);
                }
                seen
            })
        };
        for i in 0..6u64 {
            q.push(i, 0, 1.0, 1, None, 0).unwrap();
        }
        q.close();
        assert_eq!(q.push(9, 0, 1.0, 1, None, 0), Err(PushError::Closed(9)));
        let mut seen = consumer.join().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).collect::<Vec<_>>(), "close drains the queue");
    }
}
