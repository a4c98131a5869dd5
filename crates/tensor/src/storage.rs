//! 32-byte-aligned tensor storage with a thread-local buffer-reuse arena.
//!
//! This module is the workspace's only `unsafe` surface outside the vendored
//! shims. Every `unsafe` block is paired with a `SAFETY:` comment and the
//! `ppn-check` `no-unsafe` rule audits exactly that invariant; the rest of
//! `ppn-tensor` stays `#![deny(unsafe_code)]`.
//!
//! ## Why not `Vec<f64>`
//!
//! `Vec` only guarantees the allocator's natural alignment (16 bytes on this
//! target), so 4-wide AVX2 loads over its buffers straddle cache lines and
//! the autovectorizer has to emit unaligned-tolerant code. [`Storage`]
//! allocates every buffer on a 32-byte boundary via an explicit
//! [`Layout`], which also makes the allocation size/alignment contract
//! auditable in one place.
//!
//! ## Arena
//!
//! Training runs thousands of structurally identical tape sweeps, so freed
//! buffers are parked in a thread-local, size-bucketed free list instead of
//! being returned to the allocator. A subsequent request for the same size
//! class pops the parked pointer — the "buffer reuse" optimization pass:
//! after the first sweep, steady-state forward/backward allocates nothing,
//! as long as one sweep's peak of live buffers fits in the arena.
//! Buckets are power-of-two element counts from [`MIN_CAP`] up to
//! 2^22 elements (32 MiB); larger buffers bypass the arena, and at most
//! [`MAX_HELD_BYTES`] are parked per thread (a buffer released beyond that
//! is freed, and the next sweep allocates it again). [`arena_stats`] exposes
//! hit/miss/byte counters, mirrored to `ppn-obs` by [`flush_obs_counters`].

#![allow(unsafe_code)] // audited: raw allocation confined to this module, see module docs

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Guaranteed alignment (bytes) of every [`Storage`] buffer.
pub const ALIGN: usize = 32;

/// Smallest capacity ever allocated, in elements (one 32-byte AVX2 lane).
const MIN_CAP: usize = 4;

/// Largest power-of-two size class parked in the arena, in elements.
const MAX_CLASS: usize = 1 << 22;

/// Number of arena buckets: capacities `MIN_CAP << 0 ..= MIN_CAP << 20`.
const N_CLASSES: usize = 21;

/// Per-thread cap on bytes parked in the arena before buffers are freed.
const MAX_HELD_BYTES: usize = 64 << 20;

const BYTES: usize = std::mem::size_of::<f64>();

/// Largest representable capacity; keeps `cap * BYTES` from overflowing
/// `isize` as `Layout` requires.
const MAX_ELEMS: usize = isize::MAX as usize / BYTES;

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
    free: [Vec<NonNull<f64>>; N_CLASSES],
    held_bytes: usize,
    alloc_bytes: u64,
    hits: u64,
    misses: u64,
    /// Counter values already mirrored to ppn-obs by `flush_obs_counters`.
    flushed: ArenaStats,
}

impl Arena {
    fn new() -> Self {
        Arena {
            free: std::array::from_fn(|_| Vec::new()),
            held_bytes: 0,
            alloc_bytes: 0,
            hits: 0,
            misses: 0,
            flushed: ArenaStats::default(),
        }
    }

    fn stats(&self) -> ArenaStats {
        ArenaStats {
            alloc_bytes: self.alloc_bytes,
            arena_hits: self.hits,
            arena_misses: self.misses,
            held_bytes: self.held_bytes as u64,
        }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for (ci, bucket) in self.free.iter_mut().enumerate() {
            for ptr in bucket.drain(..) {
                raw_dealloc(ptr, MIN_CAP << ci);
            }
        }
    }
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::new());
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

fn layout_for(cap: usize) -> Layout {
    assert!(cap <= MAX_ELEMS, "storage capacity overflows allocation size");
    // ppn-check: allow(no-panic) size and alignment were validated just above
    Layout::from_size_align(cap * BYTES, ALIGN).expect("validated storage layout")
}

fn raw_alloc(cap: usize) -> NonNull<f64> {
    let layout = layout_for(cap);
    // SAFETY: layout has non-zero size (cap >= MIN_CAP > 0) and a valid
    // power-of-two alignment, as required by `alloc_zeroed`.
    let p = unsafe { alloc_zeroed(layout) };
    match NonNull::new(p.cast::<f64>()) {
        Some(nn) => nn,
        None => handle_alloc_error(layout),
    }
}

fn raw_dealloc(ptr: NonNull<f64>, cap: usize) {
    // SAFETY: every Storage pointer originates from `raw_alloc(cap)` with
    // this exact layout and is released exactly once (Drop or grow).
    unsafe { dealloc(ptr.as_ptr().cast::<u8>(), layout_for(cap)) };
}

/// Obtains a buffer of capacity `cap`, recycling from the arena when a
/// same-class buffer is parked. Returns the pointer and whether it was
/// recycled (recycled buffers hold stale f64 bits; fresh ones are zeroed).
fn acquire(cap: usize) -> (NonNull<f64>, bool) {
    if cap <= MAX_CLASS {
        let recycled = ARENA
            .try_with(|cell| {
                let mut a = cell.borrow_mut();
                match a.free[class_index(cap)].pop() {
                    Some(ptr) => {
                        a.held_bytes -= cap * BYTES;
                        a.hits += 1;
                        Some(ptr)
                    }
                    None => {
                        a.misses += 1;
                        a.alloc_bytes += (cap * BYTES) as u64;
                        None
                    }
                }
            })
            .unwrap_or(None); // TLS torn down: just allocate fresh
        if let Some(ptr) = recycled {
            return (ptr, true);
        }
    }
    (raw_alloc(cap), false)
}

/// Returns a buffer to the arena (same-class reuse) or to the allocator.
fn release(ptr: NonNull<f64>, cap: usize) {
    let parked = cap <= MAX_CLASS
        && ARENA
            .try_with(|cell| {
                let mut a = cell.borrow_mut();
                if a.held_bytes + cap * BYTES <= MAX_HELD_BYTES {
                    a.free[class_index(cap)].push(ptr);
                    a.held_bytes += cap * BYTES;
                    true
                } else {
                    false
                }
            })
            .unwrap_or(false); // TLS torn down: free directly
    if !parked {
        raw_dealloc(ptr, cap);
    }
}

/// A 32-byte-aligned, heap-allocated `f64` buffer — the backing store of
/// every [`crate::Tensor`].
///
/// Dereferences to `[f64]`; the full capacity is always initialized (fresh
/// allocations are zeroed, recycled ones hold previously valid f64s), so the
/// slice views never expose uninitialized memory.
pub struct Storage {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: Storage uniquely owns its allocation and has no interior
// mutability; transferring or sharing it across threads is as safe as for
// Vec<f64>.
unsafe impl Send for Storage {}
// SAFETY: &Storage only permits reads (no interior mutability), so shared
// references may cross threads, as for Vec<f64>.
unsafe impl Sync for Storage {}

impl Storage {
    /// Allocates (or recycles) a buffer for `len` elements; reports whether
    /// the buffer came from the arena and thus holds stale bits.
    fn with_raw_len(len: usize) -> (Storage, bool) {
        let cap = cap_for(len);
        let (ptr, recycled) = acquire(cap);
        (Storage { ptr, len, cap }, recycled)
    }

    /// A buffer of `len` zeros.
    pub fn zeroed(len: usize) -> Storage {
        let (mut s, recycled) = Storage::with_raw_len(len);
        if recycled {
            s.fill(0.0);
        }
        s
    }

    /// A buffer of `len` elements with unspecified contents, for callers
    /// that overwrite every element before reading any. Debug builds poison
    /// recycled buffers with NaN so read-before-write slips trip the
    /// graph's finiteness contracts.
    pub(crate) fn uninit(len: usize) -> Storage {
        let (mut s, recycled) = Storage::with_raw_len(len);
        if cfg!(debug_assertions) && recycled {
            s.fill(f64::NAN);
        }
        s
    }

    /// A buffer of `len` copies of `v`.
    pub fn filled(len: usize, v: f64) -> Storage {
        let mut s = Storage::uninit(len);
        s.fill(v);
        s
    }

    /// A buffer holding a copy of `data`.
    pub fn from_slice(data: &[f64]) -> Storage {
        let mut s = Storage::uninit(data.len());
        s.copy_from_slice(data);
        s
    }

    /// An empty buffer with room for at least `hint` elements.
    pub fn with_capacity(hint: usize) -> Storage {
        let (mut s, _) = Storage::with_raw_len(hint.max(MIN_CAP));
        s.len = 0;
        s
    }

    /// Appends `v`, growing (geometrically) if full.
    pub fn push(&mut self, v: f64) {
        if self.len == self.cap {
            self.grow();
        }
        // SAFETY: len < cap after grow(), so the write is in bounds of the
        // allocation; the slot holds an initialized f64 (see struct docs).
        unsafe { *self.ptr.as_ptr().add(self.len) = v };
        self.len += 1;
    }

    fn grow(&mut self) {
        let new_cap = cap_for(self.cap.saturating_mul(2).max(MIN_CAP));
        let (new_ptr, _) = acquire(new_cap);
        // SAFETY: both allocations are live, disjoint, and at least
        // `self.len` elements long (new_cap > cap >= len).
        unsafe { std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len) };
        release(self.ptr, self.cap);
        self.ptr = new_ptr;
        self.cap = new_cap;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw base pointer (32-byte aligned); for alignment assertions only.
    pub fn as_ptr(&self) -> *const f64 {
        self.ptr.as_ptr()
    }

    /// Copies the contents into a plain `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self[..].to_vec()
    }
}

impl Drop for Storage {
    fn drop(&mut self) {
        release(self.ptr, self.cap);
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
        // SAFETY: ptr is valid for cap >= len initialized f64s (see struct
        // docs) and uniquely owned, so a shared slice view of len is sound.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Storage {
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: as for Deref; &mut self guarantees the view is unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
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
    fn buffers_are_32_byte_aligned() {
        for len in [0, 1, 3, 4, 5, 17, 1024, 100_003] {
            let s = Storage::zeroed(len);
            assert_eq!(s.as_ptr() as usize % ALIGN, 0, "len={len}");
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
    fn push_and_grow_preserve_contents_and_alignment() {
        let mut s = Storage::with_capacity(2);
        for i in 0..1000 {
            s.push(i as f64 * 0.5);
        }
        assert_eq!(s.len(), 1000);
        assert_eq!(s.as_ptr() as usize % ALIGN, 0);
        for (i, &v) in s.iter().enumerate() {
            assert_eq!(v, i as f64 * 0.5);
        }
    }

    #[test]
    fn arena_recycles_same_class() {
        // Park a buffer, then re-request the same size class.
        let before = arena_stats();
        let p = {
            let s = Storage::zeroed(600); // class 1024
            s.as_ptr() as usize
        };
        let s2 = Storage::zeroed(700); // same class 1024
        assert_eq!(s2.as_ptr() as usize, p, "same-class request should recycle");
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
    fn oversize_buffers_bypass_arena() {
        let held = arena_stats().held_bytes;
        drop(Storage::zeroed(MAX_CLASS + 8));
        assert_eq!(arena_stats().held_bytes, held, "oversize must not be parked");
    }
}
