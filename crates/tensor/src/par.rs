//! Scoped worker pool: the workspace's only thread-spawning module.
//!
//! Every parallel region in the workspace funnels through here (the
//! `ppn-check` `no-thread` rule enforces it). The pool is deliberately
//! simple: each parallel region opens a [`std::thread::scope`], workers pull
//! work items off a `parking_lot`-locked queue, and the region joins before
//! returning — no detached threads, no cross-region state beyond the
//! configured thread count.
//!
//! ## Thread count
//!
//! The effective count comes from, in priority order:
//!
//! 1. a scoped [`with_threads`] override (used by tests to compare thread
//!    counts inside one process, and by `perfbench` to pin its pool size),
//! 2. the `PPN_THREADS` environment variable (read once, cached),
//! 3. [`std::thread::available_parallelism`].
//!
//! `PPN_THREADS=1` is the exact serial path: no threads are spawned and the
//! calling thread runs every item inline.
//!
//! ## Determinism
//!
//! The pool only distributes *disjoint* work: every output element is
//! written by exactly one worker, and each kernel built on the pool keeps
//! its per-element floating-point accumulation order identical to the
//! serial loop (see `Tensor::matmul` and `conv::conv2d_forward`). Results
//! are therefore bit-identical across thread counts, including the serial
//! path — the queue order only decides *who* computes a chunk, never *how*.

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
/// — including on panic. Lets one process compare thread counts directly;
/// the override does not propagate into spawned workers, but kernels never
/// nest parallel regions, so that is unobservable.
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

/// Drains `items` through `f` on up to [`threads`] scoped workers (the
/// calling thread included). Serial and single-item inputs run inline
/// without spawning.
fn dispatch<I: Send>(items: Vec<I>, f: impl Fn(I) + Sync) {
    let t = threads().min(items.len());
    if t <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let queue = Mutex::new(items.into_iter());
    let worker = || loop {
        // Pop under the lock, run outside it.
        let item = queue.lock().next();
        match item {
            Some(item) => f(item),
            None => break,
        }
    };
    std::thread::scope(|s| {
        for _ in 1..t {
            s.spawn(worker);
        }
        worker();
    });
}

/// Splits `data` into contiguous chunks of `chunk_len` elements (the last
/// chunk may be shorter) and calls `f(chunk_index, chunk)` for each, spread
/// across the pool. Chunks are disjoint `&mut` slices, so workers can never
/// observe each other's writes.
///
/// # Panics
/// Panics if `chunk_len` is zero.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "par_chunks_mut chunk_len must be positive");
    // Serial / single-chunk fast path: no chunk-list allocation, no queue.
    if threads() <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    dispatch(chunks, |(i, chunk)| f(i, chunk));
}

/// Evaluates `f(0..n)` across the pool, returning the results in index
/// order. The index→result mapping is fixed, so the output is independent
/// of scheduling.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads().min(n) <= 1 {
        return (0..n).map(f).collect();
    }
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    dispatch((0..n).collect(), |i| {
        let out = f(i);
        results.lock().push((i, out));
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
    fn par_chunks_mut_visits_every_chunk_once() {
        for t in [1, 2, 4] {
            let mut data = vec![0u32; 37];
            with_threads(t, || {
                par_chunks_mut(&mut data, 5, |i, chunk| {
                    for v in chunk.iter_mut() {
                        *v += i as u32 + 1;
                    }
                });
            });
            for (j, v) in data.iter().enumerate() {
                assert_eq!(*v, (j / 5) as u32 + 1, "t={t} j={j}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_handles_empty_input() {
        let mut data: Vec<f64> = Vec::new();
        par_chunks_mut(&mut data, 4, |_, _| panic!("no chunks expected"));
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
