//! A bounded multi-producer / multi-consumer job queue with explicit
//! backpressure.
//!
//! This is the admission-control primitive of the service layer: producers
//! *never block* — [`BoundedQueue::try_push`] either enqueues or reports
//! why it could not (`Full` with the current depth, or `Closed`), so the
//! caller can turn overload into an immediate 429-style rejection instead
//! of unbounded buffering. Consumers block in [`BoundedQueue::pop`] until
//! an item arrives or the queue is closed *and* drained, which is exactly
//! the graceful-shutdown contract: after [`BoundedQueue::close`] every
//! already-accepted item is still handed out, and workers observe `None`
//! only once nothing is left.
//!
//! Built on `Mutex` + `Condvar` only — no channels, no external crates —
//! matching the std-only policy of the workspace.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`BoundedQueue::try_push`] refused an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the payload is the depth observed (equal
    /// to the capacity). Callers surface this as backpressure.
    Full(usize),
    /// The queue was closed; no further items are accepted.
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Deepest the queue has ever been (admission-control telemetry).
    high_water: usize,
}

/// Bounded MPMC FIFO queue. See the module docs for the contract.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `cap` items at once (`cap` ≥ 1 enforced).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                high_water: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Enqueue without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when at capacity, [`PushError::Closed`] after
    /// [`BoundedQueue::close`]. The item is returned to the caller inside
    /// neither — ownership only transfers on `Ok`.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.cap {
            return Err(PushError::Full(inner.items.len()));
        }
        inner.items.push_back(item);
        inner.high_water = inner.high_water.max(inner.items.len());
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, blocking until an item is available. Returns `None` once
    /// the queue is closed **and** empty — the worker-exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue mutex poisoned");
        }
    }

    /// Stop admitting new items. Already-queued items remain poppable;
    /// blocked consumers are woken so they can drain and exit.
    pub fn close(&self) {
        self.inner.lock().expect("queue mutex poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").items.len()
    }

    /// `true` when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deepest the queue has ever been.
    pub fn high_water(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn fifo_order_and_depth() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water(), 4);
        assert_eq!(q.try_push(99), Err(PushError::Full(4)));
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.high_water(), 4, "high water is a maximum, not a gauge");
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = BoundedQueue::<u32>::new(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3).map(|_| s.spawn(|| q.pop())).collect();
            // Give the consumers time to block, then close with nothing
            // queued: all must return None rather than hang.
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            for h in handles {
                assert_eq!(h.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn mpmc_delivers_every_item_once() {
        let q = BoundedQueue::new(64);
        let consumed = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(v) = q.pop() {
                        consumed.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            for producer in 0..4usize {
                let q = &q;
                s.spawn(move || {
                    // Capacity equals the total item count, so no push can
                    // ever observe Full here.
                    for i in 0..16usize {
                        q.try_push(producer * 16 + i).unwrap();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            q.close();
        });
        assert_eq!(consumed.load(Ordering::Relaxed), 64);
        assert_eq!(sum.load(Ordering::Relaxed), (0..64).sum::<usize>());
    }
}
