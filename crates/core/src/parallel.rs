//! Deterministic scoped parallel map for batched evaluation.
//!
//! Every parallel operation in `pivot-core` funnels through [`par_map`],
//! which maps a pure closure over a slice on scoped threads and returns the
//! results **in item order**. Each item is computed by exactly one worker
//! with the same instructions, so the output is bit-identical to a
//! sequential map regardless of worker count or scheduling — the property
//! the `seq == par` proptests in `tests/parallel_determinism.rs` pin down.
//!
//! # Threads
//!
//! A call with `w` workers runs on the calling thread plus `w - 1` helpers
//! spawned with [`std::thread::scope`] for that call and joined before it
//! returns; there is no global pool, queue or other state kept between
//! calls, beyond the host's thread count, read once. `w` is
//! [`Parallelism::workers`] capped at that count, so no setting runs more
//! threads than the host has. Every worker, the caller included, drains
//! one shared index cursor. A nested `par_map` spawns helpers of its own,
//! so nesting cannot deadlock, and a panic in any item is re-raised on the
//! caller once every helper is joined.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

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
    /// Up to this many workers (clamped to at least one); [`par_map`]
    /// never runs more than the host's hardware threads.
    Fixed(usize),
    /// Strictly sequential execution on the calling thread.
    Off,
}

impl Parallelism {
    /// The number of workers requested for a batch of `items` work items;
    /// [`par_map`] also caps it at the host's hardware threads.
    pub fn workers(&self, items: usize) -> usize {
        let cap = match self {
            Parallelism::Off => 1,
            Parallelism::Fixed(n) => (*n).max(1),
            Parallelism::Auto => host_threads(),
        };
        cap.min(items).max(1)
    }
}

/// The host's hardware threads, read once: `available_parallelism` reads
/// cgroup files on every call.
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Maps `f` over `items` on scoped threads, returning results in item
/// order.
///
/// Work is handed out through an atomic cursor, so long items do not
/// stall idle workers. The calling thread is one of the workers, and with
/// [`Parallelism::Off`] (or a single worker) the call is a plain
/// sequential map with no thread or synchronization at all.
///
/// # Panics
///
/// Propagates the first panic raised by `f` (the caller's own, else the
/// earliest-spawned helper's), after every helper has been joined.
pub fn par_map<T, R, F>(items: &[T], par: Parallelism, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = par.workers(items.len()).min(host_threads());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // `Relaxed` suffices: the cursor publishes no data, and each result
    // reaches the caller through its worker's `join`.
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(i, item)));
        }
    };
    let parts = thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let own = catch_unwind(AssertUnwindSafe(drain));
        let joined = helpers.into_iter().map(|helper| helper.join());
        std::iter::once(own).chain(joined).collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for part in parts {
        out.extend(part.unwrap_or_else(|payload| resume_unwind(payload)));
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    out.into_iter().map(|(_, r)| r).collect()
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
                // Long enough that every helper claims items mid-map.
                thread::sleep(std::time::Duration::from_micros(20));
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
    fn fixed_never_runs_more_threads_than_the_host_has() {
        let items: Vec<usize> = (0..256).collect();
        let ids = par_map(&items, Parallelism::Fixed(64), |_, _| {
            thread::sleep(std::time::Duration::from_micros(200));
            thread::current().id()
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        let host = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert!(
            distinct.len() <= host,
            "{} threads ran on a {host}-thread host",
            distinct.len()
        );
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        // Outer workers start inner maps; each caller drains its own map,
        // so nesting completes however many threads are already busy.
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

        // `par_map` must remain usable after a panicked map.
        let ok = par_map(&items, Parallelism::Fixed(4), |_, &x| x * 2);
        assert_eq!(ok[17], 34);
    }
}
