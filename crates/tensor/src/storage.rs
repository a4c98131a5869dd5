//! Tensor storage: boxed `f64` buffers behind a thread-local reuse arena.
//!
//! A [`Storage`] owns a `Box<[f64]>` whose length is the buffer's size
//! class, plus the logical length it exposes. Every element of the box is
//! an initialized `f64`, so the module needs no `unsafe`; nothing beyond
//! `Box`'s natural 8-byte alignment is promised (the allocator gives 16 on
//! x86-64). Fresh buffers come from `vec![0.0; cap]`, which is `calloc`:
//! the large ones are lazily zeroed pages, touched only when written.
//!
//! ## Arena
//!
//! Training runs thousands of structurally identical tape sweeps, so freed
//! buffers are parked in a thread-local, size-bucketed free list instead of
//! being returned to the allocator. A subsequent request for the same size
//! class pops the parked box — the "buffer reuse" optimization pass:
//! after the first sweep, steady-state forward/backward allocates nothing,
//! as long as one sweep's peak of live buffers fits in the arena.
//! Buckets are power-of-two element counts from [`MIN_CAP`] up to
//! 2^22 elements (32 MiB); larger buffers bypass the arena, and at most
//! [`MAX_HELD_BYTES`] are parked per thread (a buffer released beyond that
//! is freed, and the next sweep allocates it again). [`arena_stats`] exposes
//! hit/miss/byte counters, mirrored to `ppn-obs` by [`flush_obs_counters`].

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Smallest capacity ever allocated, in elements.
const MIN_CAP: usize = 4;

/// Largest power-of-two size class parked in the arena, in elements.
const MAX_CLASS: usize = 1 << 22;

/// Number of arena buckets: capacities `MIN_CAP << 0 ..= MIN_CAP << 20`.
const N_CLASSES: usize = 21;

/// Per-thread cap on bytes parked in the arena before buffers are freed.
const MAX_HELD_BYTES: usize = 64 << 20;

const BYTES: usize = std::mem::size_of::<f64>();

/// Snapshot of the calling thread's arena counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total bytes handed out by the system allocator (arena misses only).
    pub alloc_bytes: u64,
    /// Requests satisfied by recycling a parked buffer.
    pub arena_hits: u64,
    /// Requests that had to fall through to the system allocator.
    pub arena_misses: u64,
    /// Bytes currently parked in the free lists.
    pub held_bytes: u64,
}

struct Arena {
    /// Free list per power-of-two size class (`MIN_CAP << index` elements).
    free: [Vec<Box<[f64]>>; N_CLASSES],
    held_bytes: usize,
    alloc_bytes: u64,
    hits: u64,
    misses: u64,
    /// Counter values already mirrored to ppn-obs by `flush_obs_counters`.
    flushed: ArenaStats,
}

impl Arena {
    fn stats(&self) -> ArenaStats {
        ArenaStats {
            alloc_bytes: self.alloc_bytes,
            arena_hits: self.hits,
            arena_misses: self.misses,
            held_bytes: self.held_bytes as u64,
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena {
        free: std::array::from_fn(|_| Vec::new()),
        held_bytes: 0,
        alloc_bytes: 0,
        hits: 0,
        misses: 0,
        flushed: ArenaStats::default(),
    });
}

/// Rounds a requested length up to its allocation capacity: the next
/// power of two within the arena's class range, or an exact `MIN_CAP`
/// multiple beyond it.
fn cap_for(len: usize) -> usize {
    if len > MAX_CLASS {
        len.div_ceil(MIN_CAP) * MIN_CAP
    } else {
        len.next_power_of_two().max(MIN_CAP)
    }
}

/// Bucket index for an arena-eligible capacity (`MIN_CAP <= cap <= MAX_CLASS`,
/// power of two).
fn class_index(cap: usize) -> usize {
    debug_assert!(cap.is_power_of_two() && (MIN_CAP..=MAX_CLASS).contains(&cap));
    (cap / MIN_CAP).trailing_zeros() as usize
}

/// Pops a parked buffer of capacity `cap`; it holds stale f64 bits. `None`
/// means the caller allocates fresh; for an arena size class that is a
/// counted miss.
fn recycle(cap: usize) -> Option<Box<[f64]>> {
    if cap > MAX_CLASS {
        return None;
    }
    ARENA
        .try_with(|cell| {
            let mut a = cell.borrow_mut();
            let buf = a.free[class_index(cap)].pop();
            if buf.is_some() {
                a.held_bytes -= cap * BYTES;
                a.hits += 1;
            } else {
                a.misses += 1;
                a.alloc_bytes += (cap * BYTES) as u64;
            }
            buf
        })
        .unwrap_or(None) // TLS torn down: just allocate fresh
        // Every box parked in this class is `cap` long. Saying so lets the
        // compiler keep `cap` in a register instead of reloading the length.
        .filter(|buf| buf.len() == cap)
}

/// A zero-filled buffer of capacity `cap` from the system allocator.
#[cold]
fn fresh(cap: usize) -> Box<[f64]> {
    vec![0.0; cap].into_boxed_slice()
}

/// Parks `buf` in the arena, or drops it (freeing it) when it is oversize,
/// the arena is full or the thread's TLS is gone.
fn release(buf: Box<[f64]>) {
    let cap = buf.len();
    if cap > MAX_CLASS {
        return;
    }
    let _ = ARENA.try_with(move |cell| {
        let mut a = cell.borrow_mut();
        if a.held_bytes + cap * BYTES <= MAX_HELD_BYTES {
            a.free[class_index(cap)].push(buf);
            a.held_bytes += cap * BYTES;
        }
    });
}

/// A heap-allocated `f64` buffer — the backing store of every
/// [`crate::Tensor`].
///
/// Dereferences to its first `len` elements. The box is the whole size
/// class, and every element of it is an initialized f64 (fresh allocations
/// are zeroed, recycled ones hold earlier values).
pub struct Storage {
    buf: Box<[f64]>,
    len: usize,
}

impl Storage {
    /// A buffer of `len` zeros.
    pub fn zeroed(len: usize) -> Storage {
        let cap = cap_for(len);
        let buf = match recycle(cap) {
            Some(mut buf) => {
                buf[..len].fill(0.0);
                buf
            }
            None => fresh(cap),
        };
        Storage { buf, len }
    }

    /// A buffer of `len` elements with unspecified contents, for callers
    /// that overwrite every element before reading any. Debug builds poison
    /// recycled buffers with NaN so read-before-write slips trip the
    /// graph's finiteness contracts.
    pub(crate) fn uninit(len: usize) -> Storage {
        let cap = cap_for(len);
        let buf = match recycle(cap) {
            Some(mut buf) => {
                if cfg!(debug_assertions) {
                    buf[..len].fill(f64::NAN);
                }
                buf
            }
            None => fresh(cap),
        };
        Storage { buf, len }
    }

    /// A buffer of `len` copies of `v`.
    pub fn filled(len: usize, v: f64) -> Storage {
        let cap = cap_for(len);
        let mut buf = recycle(cap).unwrap_or_else(|| fresh(cap));
        buf[..len].fill(v);
        Storage { buf, len }
    }

    /// A buffer holding a copy of `data`.
    pub fn from_slice(data: &[f64]) -> Storage {
        let (len, cap) = (data.len(), cap_for(data.len()));
        let mut buf = recycle(cap).unwrap_or_else(|| fresh(cap));
        buf[..len].copy_from_slice(data);
        Storage { buf, len }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies the contents into a plain `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self[..].to_vec()
    }
}

impl Drop for Storage {
    #[inline]
    fn drop(&mut self) {
        release(std::mem::take(&mut self.buf));
    }
}

impl Clone for Storage {
    fn clone(&self) -> Storage {
        Storage::from_slice(self)
    }
}

impl Deref for Storage {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

impl DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[..self.len]
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Storage) -> bool {
        self[..] == other[..]
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&self[..], f)
    }
}

/// Counters for the calling thread's arena (zeros if TLS is gone).
pub fn arena_stats() -> ArenaStats {
    ARENA.try_with(|cell| cell.borrow().stats()).unwrap_or_default()
}

/// Mirrors the arena counter deltas since the last flush into the ppn-obs
/// metrics registry (`tensor.alloc_bytes`, `tensor.arena_hits`,
/// `tensor.arena_misses`). Called at the end of every backward sweep.
pub fn flush_obs_counters() {
    if !ppn_obs::metrics_enabled() {
        return;
    }
    let _ = ARENA.try_with(|cell| {
        let mut a = cell.borrow_mut();
        let now = a.stats();
        let prev = a.flushed;
        ppn_obs::counter("tensor.alloc_bytes").add(now.alloc_bytes - prev.alloc_bytes);
        ppn_obs::counter("tensor.arena_hits").add(now.arena_hits - prev.arena_hits);
        ppn_obs::counter("tensor.arena_misses").add(now.arena_misses - prev.arena_misses);
        a.flushed = now;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_buffers_read_zero_at_every_length() {
        for len in [0, 1, 3, 4, 5, 17, 1024, 100_003] {
            let s = Storage::zeroed(len);
            assert_eq!(s.len(), len);
            assert!(s.iter().all(|&v| v == 0.0), "len={len}");
        }
    }

    #[test]
    fn cap_for_classes() {
        assert_eq!(cap_for(0), MIN_CAP);
        assert_eq!(cap_for(1), MIN_CAP);
        assert_eq!(cap_for(4), 4);
        assert_eq!(cap_for(5), 8);
        assert_eq!(cap_for(1000), 1024);
        assert_eq!(cap_for(MAX_CLASS), MAX_CLASS);
        // Oversize buffers round to an exact MIN_CAP multiple.
        assert_eq!(cap_for(MAX_CLASS + 1), MAX_CLASS + MIN_CAP);
        assert_eq!(class_index(MIN_CAP), 0);
        assert_eq!(class_index(MAX_CLASS), N_CLASSES - 1);
    }

    #[test]
    fn arena_recycles_same_class() {
        // Park a buffer, then re-request the same size class.
        let before = arena_stats();
        let p = {
            let mut s = Storage::zeroed(600); // class 1024
            s.fill(3.0);
            s.as_ptr()
        };
        let s2 = Storage::zeroed(700); // same class 1024
        assert_eq!(s2.as_ptr(), p, "same-class request should recycle");
        let after = arena_stats();
        assert!(after.arena_hits > before.arena_hits);
        // Recycled but zeroed on request.
        assert!(s2.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn clone_copies_bits() {
        let mut s = Storage::zeroed(9);
        s[3] = -0.0;
        s[4] = f64::NAN;
        let c = s.clone();
        assert_eq!(c.len(), 9);
        for (a, b) in s.iter().zip(c.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_ne!(s.as_ptr(), c.as_ptr());
    }

    #[test]
    fn arena_frees_buffers_beyond_the_per_thread_cap() {
        // 17 buffers of one 4 MiB class: 68 MiB, past the 64 MiB cap.
        const N: usize = 1 << 19;
        const SIZE: u64 = (N * BYTES) as u64;
        let bufs: Vec<Storage> = (0..17).map(|_| Storage::zeroed(N)).collect();
        let before = arena_stats();
        for s in bufs {
            drop(s);
            assert!(arena_stats().held_bytes <= MAX_HELD_BYTES as u64);
        }
        let released = arena_stats();
        let parked = (released.held_bytes - before.held_bytes) / SIZE;
        assert_eq!(parked, 17.min((MAX_HELD_BYTES as u64 - before.held_bytes) / SIZE));
        assert!(parked < 17, "the buffers past the cap must be freed");

        let again: Vec<Storage> = (0..17).map(|_| Storage::zeroed(N)).collect();
        let after = arena_stats();
        assert_eq!(after.arena_hits - released.arena_hits, parked);
        assert_eq!(after.arena_misses - released.arena_misses, 17 - parked);
        assert!(again.iter().all(|s| s.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn oversize_buffers_bypass_arena() {
        let held = arena_stats().held_bytes;
        drop(Storage::zeroed(MAX_CLASS + 8));
        assert_eq!(arena_stats().held_bytes, held, "oversize must not be parked");
    }
}
