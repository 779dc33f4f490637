//! Deterministic persistent worker pool for batched evaluation.
//!
//! Every parallel operation in `pivot-core` funnels through [`par_map`],
//! which distributes items over a **long-lived pool** of worker threads
//! (spawned once, on first use) and writes each result into its item's slot,
//! so outputs come back **in item order**. The per-item closures are pure,
//! so the output is bit-identical to a sequential map regardless of worker
//! count or scheduling — the property the `seq == par` proptests in
//! `tests/parallel_determinism.rs` pin down.
//!
//! # Pool lifecycle
//!
//! The pool is a process-wide singleton holding
//! `available_parallelism() - 1` detached threads that block on an MPSC
//! channel of jobs. A [`par_map`] call packages its closure and an atomic
//! work counter into one job, sends a handle per helper worker, and then
//! **participates itself**: the calling thread drains the same index queue
//! as the helpers. That keeps a single-core host (zero pool threads) fully
//! functional, and makes nested `par_map` calls deadlock-free — a caller
//! never blocks waiting for a worker to be free, it just does the work.
//! Worker panics are caught, forwarded to the caller, and re-thrown there;
//! the pool threads themselves never die.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// How much host parallelism an evaluation may use.
///
/// Threaded through [`EffortLadder`](crate::EffortLadder),
/// [`CascadeCache`](crate::CascadeCache),
/// [`Phase2Search`](crate::Phase2Search) and
/// [`select_optimal_path`](crate::phase1::select_optimal_path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker per available hardware thread (the default).
    #[default]
    Auto,
    /// Exactly this many workers (clamped to at least one).
    Fixed(usize),
    /// Strictly sequential execution on the calling thread.
    Off,
}

impl Parallelism {
    /// The number of workers used for a batch of `items` work items.
    pub fn workers(&self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        };
        cap.min(items).max(1)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One `par_map` invocation, shared between the caller and the pool
/// threads that picked the job up.
///
/// `run` is a lifetime-erased borrow of the caller's stack closure. The
/// safety argument for the erasure: a worker only invokes `run(i)` for an
/// index `i < total` it claimed from `next`, and the caller cannot leave
/// [`par_map`] (and so cannot drop the closure) until `completed == total`,
/// which requires that very invocation to have finished. A worker that
/// claims `i >= total` touches only the atomics, which stay alive through
/// the `Arc`.
struct Task {
    run: &'static (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
    completed: Mutex<usize>,
    finished: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

/// Drains the task's index queue on the current thread.
fn work(task: &Task) {
    loop {
        let i = task.next.fetch_add(1, Ordering::Relaxed);
        if i >= task.total {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (task.run)(i))) {
            let mut slot = lock(&task.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut done = lock(&task.completed);
        *done += 1;
        if *done == task.total {
            task.finished.notify_all();
        }
    }
}

/// The process-wide persistent pool: detached threads blocking on a job
/// channel. Created lazily by the first multi-worker [`par_map`] call.
struct WorkerPool {
    sender: Mutex<Sender<Arc<Task>>>,
    threads: usize,
}

impl WorkerPool {
    fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(WorkerPool::new)
    }

    fn new() -> Self {
        // The caller participates in every job, so the pool itself only
        // needs the *extra* hardware threads.
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .saturating_sub(1);
        let (sender, receiver) = std::sync::mpsc::channel::<Arc<Task>>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..threads {
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("pivot-worker-{i}"))
                .spawn(move || worker_loop(&receiver))
                .expect("failed to spawn pool worker");
        }
        Self {
            sender: Mutex::new(sender),
            threads,
        }
    }

    /// Extra threads available beyond the calling thread.
    fn helper_threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, task: &Arc<Task>, copies: usize) {
        let sender = lock(&self.sender);
        for _ in 0..copies {
            // The receiver lives in detached threads for the process
            // lifetime, so a send can only fail during teardown.
            let _ = sender.send(Arc::clone(task));
        }
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Arc<Task>>>) {
    loop {
        let job = lock(receiver).recv();
        match job {
            Ok(task) => work(&task),
            Err(_) => return,
        }
    }
}

/// Pointer into the caller's result vector; each index is written by
/// exactly one worker (indices are handed out by `fetch_add`), so sharing
/// it across threads is sound.
struct SlotWriter<R>(*mut Option<R>);

impl<R> SlotWriter<R> {
    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and claimed by exactly one worker, and the
    /// slot vector must outlive the write.
    unsafe fn write(&self, i: usize, value: R) {
        unsafe { self.0.add(i).write(Some(value)) };
    }
}

impl<R> Clone for SlotWriter<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for SlotWriter<R> {}
unsafe impl<R: Send> Send for SlotWriter<R> {}
unsafe impl<R: Send> Sync for SlotWriter<R> {}

/// Maps `f` over `items` on the persistent worker pool, returning results
/// in item order.
///
/// Work is handed out through an atomic counter, so long items do not
/// stall idle workers, and each result lands in its item's pre-allocated
/// slot. The calling thread always participates in the job, so the call
/// works (and stays deadlock-free under nesting) even with zero pool
/// threads. With [`Parallelism::Off`] (or a single worker) this
/// degenerates to a plain sequential map with no synchronization overhead.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker (the call still
/// waits for every item to settle first).
pub fn par_map<T, R, F>(items: &[T], par: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.workers(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let pool = WorkerPool::global();
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    {
        let slot_writer = SlotWriter(slots.as_mut_ptr());
        let run = |i: usize| {
            let r = f(i, &items[i]);
            // Safety: `i` was claimed by exactly one worker, and the
            // caller does not read the slots until every index completed.
            unsafe { slot_writer.write(i, r) };
        };
        let run_ref: &(dyn Fn(usize) + Sync) = &run;
        // Safety: lifetime erasure justified in the `Task` docs — the
        // closure outlives every `run` invocation because the wait below
        // only returns once all claimed indices have completed.
        let run_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run_ref) };
        let task = Arc::new(Task {
            run: run_static,
            next: AtomicUsize::new(0),
            total: items.len(),
            completed: Mutex::new(0),
            finished: Condvar::new(),
            panic: Mutex::new(None),
        });

        pool.submit(&task, (workers - 1).min(pool.helper_threads()));
        work(&task);

        let mut done = lock(&task.completed);
        while *done < task.total {
            done = task
                .finished
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(done);

        let payload = lock(&task.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index computed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_and_fixed_one_are_sequential() {
        assert_eq!(Parallelism::Off.workers(100), 1);
        assert_eq!(Parallelism::Fixed(1).workers(100), 1);
        assert_eq!(Parallelism::Fixed(0).workers(100), 1);
    }

    #[test]
    fn workers_clamp_to_item_count() {
        assert_eq!(Parallelism::Fixed(8).workers(3), 3);
        assert_eq!(Parallelism::Fixed(8).workers(0), 1);
        assert!(Parallelism::Auto.workers(64) >= 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        for par in [
            Parallelism::Off,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
        ] {
            let out = par_map(&items, par, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "order broken under {par:?}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, Parallelism::Auto, |_, &x| x).is_empty());
        assert_eq!(
            par_map(&[41u32], Parallelism::Fixed(4), |_, &x| x + 1),
            vec![42]
        );
    }

    #[test]
    fn par_map_matches_sequential_for_float_reduction() {
        // Per-item float results must be bit-identical: each item is
        // computed by exactly one worker with the same instructions.
        let items: Vec<f64> = (0..1000).map(|i| i as f64 * 0.37).collect();
        let seq = par_map(&items, Parallelism::Off, |_, &x| {
            (x.sin() * x.cos()).to_bits()
        });
        let par = par_map(&items, Parallelism::Fixed(5), |_, &x| {
            (x.sin() * x.cos()).to_bits()
        });
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_survives_many_batches() {
        // The persistent pool must stay healthy across repeated jobs of
        // varying size (this would leak or deadlock with a broken queue).
        for round in 0..50 {
            let items: Vec<usize> = (0..round * 3 + 1).collect();
            let out = par_map(&items, Parallelism::Fixed(4), |_, &x| x + round);
            assert_eq!(out.len(), items.len());
            assert_eq!(out[0], round);
        }
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        // Outer workers issue inner jobs; since every caller drains its
        // own queue, this must complete even when the pool is saturated.
        let outer: Vec<usize> = (0..8).collect();
        let result = par_map(&outer, Parallelism::Fixed(4), |_, &o| {
            let inner: Vec<usize> = (0..16).collect();
            par_map(&inner, Parallelism::Fixed(4), |_, &i| i * o)
                .into_iter()
                .sum::<usize>()
        });
        let expected: Vec<usize> = outer.iter().map(|&o| o * 120).collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, Parallelism::Fixed(4), |_, &x| {
                assert!(x != 17, "poison item");
                x
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("poison item"), "unexpected payload: {msg}");

        // The pool must remain usable after a panicked job.
        let ok = par_map(&items, Parallelism::Fixed(4), |_, &x| x * 2);
        assert_eq!(ok[17], 34);
    }
}
