//! Scoped worker pool: the workspace's only thread-spawning module.
//!
//! The pool runs whole units of independent work side by side: experiment
//! cells (`ppn_bench::run_cells`), test clients and load generators. It
//! never splits a tensor kernel; `matmul` and the conv kernels run on the
//! calling thread, so a cell trained on a worker computes exactly what it
//! computes alone. Every parallel region in the workspace funnels through
//! here (the `ppn-check` `no-thread` rule enforces it). Each [`par_map`]
//! opens a [`std::thread::scope`], workers pull indices off a
//! `parking_lot`-locked queue, and the region joins before returning: no
//! detached threads, no cross-region state beyond the configured thread
//! count.
//!
//! ## Thread count
//!
//! The effective count comes from, in priority order:
//!
//! 1. a scoped [`with_threads`] override (used by tests to size a fan-out
//!    inside one process),
//! 2. the `PPN_THREADS` environment variable (read once, cached),
//! 3. [`std::thread::available_parallelism`].
//!
//! `PPN_THREADS=1` is the exact serial path: no threads are spawned and the
//! calling thread runs every item inline.
//!
//! ## Determinism
//!
//! [`par_map`] returns results in index order. When each item's result
//! depends only on its index, as a seeded experiment cell's does, the
//! output is the same at every thread count: the queue order only decides
//! *who* runs an item, never *how*.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::OnceLock;

/// Upper bound on the pool size; guards against absurd `PPN_THREADS`.
pub const MAX_THREADS: usize = 64;

static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Scoped override installed by [`with_threads`]; 0 = no override.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Thread count from `PPN_THREADS` (cached on first read), falling back to
/// the machine's available parallelism. Values outside `1..=MAX_THREADS`
/// (and unparseable ones) fall back to the default.
fn global_threads() -> usize {
    *GLOBAL_THREADS.get_or_init(|| {
        std::env::var("PPN_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| (1..=MAX_THREADS).contains(&n))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(MAX_THREADS)
            })
    })
}

/// The effective worker count for parallel regions started by this thread.
pub fn threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        global_threads()
    }
}

/// Runs `f` with the effective thread count forced to `n` on this thread
/// (clamped to `1..=MAX_THREADS`), restoring the previous setting afterwards
/// — including on panic. The override does not propagate into spawned
/// workers: a region started inside a worker reads the global count.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(Cell::get);
    let _restore = Restore(prev);
    OVERRIDE.with(|o| o.set(n.clamp(1, MAX_THREADS)));
    f()
}

/// Evaluates `f(0..n)` on up to [`threads`] scoped workers (the calling
/// thread included), returning the results in index order. The
/// index→result mapping is fixed, so the output is independent of
/// scheduling. Serial and single-item inputs run inline without spawning.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let t = threads().min(n);
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let queue = Mutex::new(0..n);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let worker = || loop {
        // Pop under the lock, run outside it.
        let Some(i) = queue.lock().next() else { break };
        let out = f(i);
        results.lock().push((i, out));
    };
    std::thread::scope(|s| {
        for _ in 1..t {
            s.spawn(worker);
        }
        worker();
    });
    let mut pairs = results.into_inner();
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn with_threads_overrides_and_restores() {
        let before = threads();
        with_threads(3, || assert_eq!(threads(), 3));
        assert_eq!(threads(), before);
        // Clamped at both ends.
        with_threads(0, || assert_eq!(threads(), 1));
        with_threads(10_000, || assert_eq!(threads(), MAX_THREADS));
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = threads();
        let r = std::panic::catch_unwind(|| with_threads(5, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(threads(), before);
    }

    #[test]
    fn par_map_returns_in_index_order() {
        for t in [1, 2, 8] {
            let out = with_threads(t, || par_map(23, |i| i * i));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "t={t}");
        }
    }

    #[test]
    fn all_items_run_exactly_once_under_contention() {
        let count = AtomicUsize::new(0);
        with_threads(4, || {
            par_map(100, |_| count.fetch_add(1, Ordering::Relaxed));
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }
}
