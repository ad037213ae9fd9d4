//! A bounded, multi-producer job queue with priority lanes and explicit
//! backpressure.
//!
//! The queue is the admission control point of the service: its capacity
//! bounds the service's memory and its [`Admission`] policy decides what
//! happens when traffic exceeds it — block the submitter (backpressure
//! propagates to the client connection) or reject immediately with
//! [`PushError::Full`] so the client can retry elsewhere.
//!
//! Consumers never wait on the queue: [`JobQueue::pop`] returns `None`
//! at once when nothing is queued. The gateway's dispatcher pops only
//! when a worker has a free slot, so it is the one that waits — for a
//! `pull`, not for a job.
//!
//! Ordering guarantees: strict priority between lanes (a `High` item is
//! always dequeued before any waiting `Normal` or `Low` item), FIFO
//! within each lane. Closing the queue stops admission immediately but
//! lets consumers drain every item already accepted — the mechanism
//! behind graceful drain.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

// `Priority` lives in the shared protocol crate (it is a wire-level
// concept); re-exported here because it is also the queue's lane index.
pub use proto::Priority;

/// What a full queue does to a submitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Admission {
    /// Block the submitting thread until space frees up (backpressure).
    #[default]
    Block,
    /// Fail fast with [`PushError::Full`].
    Reject,
}

impl Admission {
    /// Stable lower-case protocol name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Admission::Block => "block",
            Admission::Reject => "reject",
        }
    }

    /// Parses the protocol name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Admission> {
        match name {
            "block" => Some(Admission::Block),
            "reject" => Some(Admission::Reject),
            _ => None,
        }
    }
}

/// Why a push did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity and the policy is [`Admission::Reject`].
    Full,
    /// The queue was closed (draining); nothing is admitted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full => write!(f, "queue full"),
            PushError::Closed => write!(f, "queue closed (draining)"),
        }
    }
}

impl std::error::Error for PushError {}

struct Inner<T> {
    lanes: [VecDeque<T>; 3],
    len: usize,
    closed: bool,
    depth_max: usize,
    blocked_pushes: u64,
}

impl<T> Inner<T> {
    fn enqueue(&mut self, item: T, priority: Priority) {
        self.lanes[priority.lane()].push_back(item);
        self.len += 1;
        self.depth_max = self.depth_max.max(self.len);
    }
}

/// The bounded priority queue. All methods take `&self`; share it via
/// `Arc` between submitters and the dispatcher.
pub struct JobQueue<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
}

impl<T> JobQueue<T> {
    /// A queue admitting at most `cap` items across all lanes.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is zero — a zero-capacity queue can never admit.
    #[must_use]
    pub fn new(cap: usize) -> JobQueue<T> {
        assert!(cap > 0, "queue capacity must be positive");
        JobQueue {
            cap,
            inner: Mutex::new(Inner {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                len: 0,
                closed: false,
                depth_max: 0,
                blocked_pushes: 0,
            }),
            not_full: Condvar::new(),
        }
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Enqueues `item` into `priority`'s lane under `admission`.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] under [`Admission::Reject`] at capacity;
    /// [`PushError::Closed`] once [`close`](Self::close) was called
    /// (including while a blocked push is waiting).
    pub fn push(&self, item: T, priority: Priority, admission: Admission) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len >= self.cap {
            match admission {
                Admission::Reject => return Err(PushError::Full),
                Admission::Block => {
                    inner.blocked_pushes += 1;
                    while inner.len >= self.cap {
                        inner = self
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        if inner.closed {
                            return Err(PushError::Closed);
                        }
                    }
                }
            }
        }
        inner.enqueue(item, priority);
        Ok(())
    }

    /// Enqueues an item that passed admission once already: a job whose
    /// worker died or panicked, or one a restarted gateway recovers from
    /// its journal. Its slot was granted then, and the threads that put
    /// it back must not block, so the capacity check is skipped.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] once [`close`](Self::close) was called.
    pub fn readmit(&self, item: T, priority: Priority) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        inner.enqueue(item, priority);
        Ok(())
    }

    /// Dequeues the next item (highest lane first, FIFO within a lane)
    /// without waiting: `None` when nothing is queued. A closed queue
    /// still hands out every item it accepted.
    #[must_use]
    pub fn pop(&self) -> Option<T> {
        self.remove_if(|_| true)
    }

    /// Removes the first queued item matching `pred`, scanning lanes
    /// highest priority first — how queued jobs are cancelled before a
    /// worker picks them up.
    #[must_use]
    pub fn remove_if(&self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut inner = self.lock();
        for lane in &mut inner.lanes {
            if let Some(at) = lane.iter().position(&mut pred) {
                let item = lane.remove(at);
                if item.is_some() {
                    inner.len -= 1;
                    drop(inner);
                    self.not_full.notify_one();
                    return item;
                }
            }
        }
        None
    }

    /// Closes the queue: every pending and future push fails with
    /// [`PushError::Closed`]; consumers still drain the remaining items.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_full.notify_all();
    }

    /// Whether [`close`](Self::close) was called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Items currently queued (all lanes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items currently queued in each lane, highest priority first —
    /// the per-lane depths behind the gateway's `/status` endpoint and
    /// its load-shedding watermarks.
    #[must_use]
    pub fn lane_depths(&self) -> [usize; 3] {
        let inner = self.lock();
        [
            inner.lanes[0].len(),
            inner.lanes[1].len(),
            inner.lanes[2].len(),
        ]
    }

    /// High-water mark of the queue depth since construction.
    #[must_use]
    pub fn depth_max(&self) -> usize {
        self.lock().depth_max
    }

    /// Pushes that had to wait for space under [`Admission::Block`] —
    /// the backpressure tally.
    #[must_use]
    pub fn blocked_pushes(&self) -> u64 {
        self.lock().blocked_pushes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_lanes_strictly_order() {
        let q = JobQueue::new(8);
        q.push("low", Priority::Low, Admission::Reject).unwrap();
        q.push("n1", Priority::Normal, Admission::Reject).unwrap();
        q.push("hi", Priority::High, Admission::Reject).unwrap();
        q.push("n2", Priority::Normal, Admission::Reject).unwrap();
        q.close();
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, ["hi", "n1", "n2", "low"]);
        assert!(q.pop().is_none(), "closed and drained");
    }

    #[test]
    fn reject_policy_fails_fast_at_capacity() {
        let q = JobQueue::new(2);
        q.push(1, Priority::Normal, Admission::Reject).unwrap();
        q.push(2, Priority::Normal, Admission::Reject).unwrap();
        assert_eq!(
            q.push(3, Priority::Normal, Admission::Reject),
            Err(PushError::Full)
        );
        assert_eq!(q.depth_max(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_rejects_pushes_and_drains_pops() {
        let q = JobQueue::new(4);
        q.push(1, Priority::Normal, Admission::Block).unwrap();
        q.close();
        assert_eq!(
            q.push(2, Priority::Normal, Admission::Block),
            Err(PushError::Closed)
        );
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_push_resumes_after_pop() {
        let q = std::sync::Arc::new(JobQueue::new(1));
        q.push(1, Priority::Normal, Admission::Block).unwrap();
        let q2 = std::sync::Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push(2, Priority::Normal, Admission::Block));
        // Give the producer time to block, then free a slot.
        while q.blocked_pushes() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(q.pop(), Some(1));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.blocked_pushes(), 1);
        assert_eq!(q.depth_max(), 1, "capacity was never exceeded");
    }

    #[test]
    fn readmit_skips_the_capacity_check_but_not_close() {
        let q = JobQueue::new(1);
        q.push(1, Priority::Normal, Admission::Reject).unwrap();
        q.readmit(2, Priority::High).unwrap();
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.readmit(3, Priority::Normal), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_never_waits() {
        let q = JobQueue::new(2);
        assert_eq!(q.pop(), None, "an open, empty queue answers at once");
        q.push(1, Priority::Normal, Admission::Reject).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert!(!q.is_closed());
    }

    #[test]
    fn remove_if_cancels_a_queued_item() {
        let q = JobQueue::new(4);
        q.push("a", Priority::Normal, Admission::Reject).unwrap();
        q.push("b", Priority::Low, Admission::Reject).unwrap();
        assert_eq!(q.remove_if(|&x| x == "b"), Some("b"));
        assert_eq!(q.remove_if(|&x| x == "b"), None);
        assert_eq!(q.len(), 1);
        q.close();
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }
}
