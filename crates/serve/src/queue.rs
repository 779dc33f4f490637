//! The bounded admission queue: backpressure at the door, coalescing at
//! the exit.
//!
//! Admission is a hard capacity check — a full queue rejects with a typed
//! [`SubmitError::Rejected`] carrying the observed depth, so overload
//! surfaces to callers immediately instead of accumulating as unbounded
//! buffering (the failure mode the ISSUE's robustness contract forbids).
//! The exit side coalesces: the engine thread blocks until work arrives,
//! then holds the batch open for a configurable window so concurrent
//! arrivals share one `forward_batch`-wide GEMM.

use crate::clock::ServeClock;
use crate::engine::lock;
use crate::request::{ServeResponse, SubmitError};
use pivot_tensor::Matrix;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One admitted request waiting for (or undergoing) execution.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Request id (matches the ticket handed to the caller).
    pub id: u64,
    /// The input image.
    pub image: Matrix,
    /// Engine-clock admission time.
    pub enqueued_ns: u64,
    /// Engine-clock deadline; resolution after this is a timeout.
    pub deadline_ns: u64,
    /// Per-request response channel.
    pub reply: Sender<ServeResponse>,
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<Pending>,
    open: bool,
}

/// Bounded MPSC admission queue with condvar-driven batch formation.
#[derive(Debug)]
pub(crate) struct AdmissionQueue {
    inner: Mutex<Inner>,
    arrived: Condvar,
    capacity: usize,
}

impl AdmissionQueue {
    /// Creates an open queue admitting at most `capacity` waiting requests.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "admission queue needs capacity >= 1");
        Self {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                open: true,
            }),
            arrived: Condvar::new(),
            capacity,
        }
    }

    /// Admits a request, or rejects it with backpressure. Never blocks.
    pub fn push(&self, pending: Pending) -> Result<(), SubmitError> {
        let mut inner = lock(&self.inner);
        if !inner.open {
            return Err(SubmitError::ShuttingDown);
        }
        if inner.queue.len() >= self.capacity {
            return Err(SubmitError::Rejected {
                queue_depth: inner.queue.len(),
            });
        }
        inner.queue.push_back(pending);
        drop(inner);
        self.arrived.notify_one();
        Ok(())
    }

    /// Requests currently waiting (not yet handed to the engine).
    pub fn depth(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// Stops admissions; waiting batch-formers wake so the engine can
    /// drain what remains and observe the closed+empty terminal state.
    pub fn close(&self) {
        lock(&self.inner).open = false;
        self.arrived.notify_all();
    }

    /// Blocks until at least one request is available (or the queue is
    /// closed), then holds the batch open up to `window` of wall time for
    /// concurrent arrivals to coalesce, and returns up to `max_batch`
    /// live requests in admission order. Returns `None` exactly when the
    /// queue is closed **and** drained — the engine's termination signal.
    ///
    /// Requests whose deadline (on `clock`) has already expired are shed
    /// at batch formation: they are pulled out of the queue *before* the
    /// live take, prepended to the returned batch (the engine resolves
    /// them as timeouts without inference), and do **not** count toward
    /// `max_batch` — a stale head never blocks a viable micro-batch. The
    /// purge runs again after the coalescing window so requests that
    /// expire while the batch is held open are shed too.
    ///
    /// A closed queue skips the coalescing wait: drain proceeds at full
    /// speed in `max_batch`-sized bites.
    pub fn next_batch(
        &self,
        max_batch: usize,
        window: Duration,
        clock: &ServeClock,
    ) -> Option<Vec<Pending>> {
        let mut inner = lock(&self.inner);
        let mut expired = Vec::new();
        loop {
            Self::purge_expired(&mut inner.queue, clock, &mut expired);
            if !inner.queue.is_empty() || !expired.is_empty() {
                break;
            }
            if !inner.open {
                return None;
            }
            inner = self
                .arrived
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if inner.open && !window.is_zero() {
            let hold_until = Instant::now() + window;
            while inner.queue.len() < max_batch && inner.open {
                let left = hold_until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                let (guard, timeout) = self
                    .arrived
                    .wait_timeout(inner, left)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
                if timeout.timed_out() {
                    break;
                }
            }
            Self::purge_expired(&mut inner.queue, clock, &mut expired);
        }
        let take = inner.queue.len().min(max_batch);
        expired.extend(inner.queue.drain(..take));
        Some(expired)
    }

    /// Moves every deadline-expired request (on `clock`) from `queue` into
    /// `expired`, preserving admission order in both.
    fn purge_expired(
        queue: &mut VecDeque<Pending>,
        clock: &ServeClock,
        expired: &mut Vec<Pending>,
    ) {
        let now = clock.now_ns();
        let mut i = 0;
        while i < queue.len() {
            if queue[i].deadline_ns <= now {
                if let Some(p) = queue.remove(i) {
                    expired.push(p);
                }
            } else {
                i += 1;
            }
        }
    }

    /// Non-blocking batch formation for deterministic stepping in tests:
    /// returns up to `max_batch` requests immediately (possibly none).
    #[cfg(test)]
    fn try_drain(&self, max_batch: usize) -> Vec<Pending> {
        let mut inner = lock(&self.inner);
        let take = inner.queue.len().min(max_batch);
        inner.queue.drain(..take).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;

    fn pending(id: u64) -> (Pending, std::sync::mpsc::Receiver<ServeResponse>) {
        pending_due(id, u64::MAX)
    }

    fn pending_due(
        id: u64,
        deadline_ns: u64,
    ) -> (Pending, std::sync::mpsc::Receiver<ServeResponse>) {
        let (tx, rx) = channel();
        (
            Pending {
                id,
                image: Matrix::zeros(2, 2),
                enqueued_ns: 0,
                deadline_ns,
                reply: tx,
            },
            rx,
        )
    }

    #[test]
    fn full_queue_rejects_with_observed_depth() {
        let q = AdmissionQueue::new(2);
        assert!(q.push(pending(0).0).is_ok());
        assert!(q.push(pending(1).0).is_ok());
        assert_eq!(
            q.push(pending(2).0),
            Err(SubmitError::Rejected { queue_depth: 2 })
        );
        assert_eq!(q.depth(), 2);
        // Draining frees capacity again.
        assert_eq!(q.try_drain(1).len(), 1);
        assert!(q.push(pending(3).0).is_ok());
    }

    #[test]
    fn closed_queue_rejects_as_shutting_down() {
        let q = AdmissionQueue::new(4);
        assert!(q.push(pending(0).0).is_ok());
        q.close();
        assert_eq!(q.push(pending(1).0), Err(SubmitError::ShuttingDown));
        // The already-admitted request still drains...
        let clock = ServeClock::manual();
        let batch = q
            .next_batch(8, Duration::ZERO, &clock)
            .expect("one pending");
        assert_eq!(batch.len(), 1);
        // ...and the closed+empty queue reports termination.
        assert!(q.next_batch(8, Duration::ZERO, &clock).is_none());
    }

    #[test]
    fn batches_preserve_admission_order_and_cap() {
        let q = AdmissionQueue::new(16);
        for i in 0..5 {
            q.push(pending(i).0).expect("capacity");
        }
        let clock = ServeClock::manual();
        let batch = q
            .next_batch(3, Duration::ZERO, &clock)
            .expect("pending work");
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1, 2]);
        let rest = q
            .next_batch(3, Duration::ZERO, &clock)
            .expect("pending work");
        assert_eq!(rest.iter().map(|p| p.id).collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    fn coalescing_window_gathers_concurrent_arrivals() {
        let q = Arc::new(AdmissionQueue::new(16));
        q.push(pending(0).0).expect("capacity");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 1..4 {
                    std::thread::sleep(Duration::from_millis(5));
                    q.push(pending(i).0).expect("capacity");
                }
            })
        };
        // A generous window lets the trickled arrivals coalesce into one
        // batch (the batch fills to max_batch and returns early).
        let batch = q
            .next_batch(4, Duration::from_secs(5), &ServeClock::manual())
            .expect("pending work");
        producer.join().expect("producer");
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn blocked_former_wakes_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let former = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                q.next_batch(4, Duration::from_millis(1), &ServeClock::manual())
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(former.join().expect("former").is_none());
    }

    /// The stale-head bugfix: requests that expired in the queue are shed
    /// at batch formation and do not count toward `max_batch`, so an
    /// expired head never displaces viable work from a micro-batch.
    #[test]
    fn expired_head_does_not_block_a_viable_micro_batch() {
        let clock = ServeClock::manual();
        let q = AdmissionQueue::new(16);
        // Two requests already past their deadline at formation time...
        q.push(pending_due(0, 5).0).expect("capacity");
        q.push(pending_due(1, 5).0).expect("capacity");
        // ...ahead of three live ones.
        for i in 2..5 {
            q.push(pending(i).0).expect("capacity");
        }
        clock.advance(Duration::from_nanos(10));
        // max_batch 3: the batch carries BOTH expired (for timeout
        // resolution) and a full live take of 3.
        let batch = q.next_batch(3, Duration::ZERO, &clock).expect("pending");
        assert_eq!(
            batch.iter().map(|p| p.id).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        let now = clock.now_ns();
        assert_eq!(batch.iter().filter(|p| p.deadline_ns <= now).count(), 2);
        assert_eq!(q.depth(), 0);
    }

    /// Expired requests buried mid-queue are purged too, not just a
    /// contiguous head run.
    #[test]
    fn expired_mid_queue_requests_are_shed_in_order() {
        let clock = ServeClock::manual();
        let q = AdmissionQueue::new(16);
        q.push(pending(0).0).expect("capacity");
        q.push(pending_due(1, 5).0).expect("capacity");
        q.push(pending(2).0).expect("capacity");
        clock.advance(Duration::from_nanos(10));
        let batch = q.next_batch(1, Duration::ZERO, &clock).expect("pending");
        // One expired (id 1, pulled from the middle) + one live (the cap).
        assert_eq!(batch.iter().map(|p| p.id).collect::<Vec<_>>(), [1, 0]);
        assert_eq!(q.depth(), 1, "live id 2 stays queued");
    }

    /// A queue holding only expired work still forms a batch (of expired
    /// requests) so they resolve as timeouts instead of rotting.
    #[test]
    fn all_expired_queue_still_forms_a_shedding_batch() {
        let clock = ServeClock::manual();
        let q = AdmissionQueue::new(4);
        q.push(pending_due(0, 5).0).expect("capacity");
        q.push(pending_due(1, 5).0).expect("capacity");
        clock.advance(Duration::from_nanos(10));
        let batch = q.next_batch(8, Duration::ZERO, &clock).expect("pending");
        assert_eq!(batch.len(), 2);
        assert_eq!(q.depth(), 0);
    }
}
