//! Vectorized AXPY primitives shared by the matmul and conv kernels.
//!
//! The scalar paths here are the reference semantics: every kernel output
//! element accumulates its terms in ascending-`k` order with separate
//! multiply and add. The AVX2 paths (x86-64 builds) perform the *same*
//! operations per lane — `_mm256_mul_pd` followed by `_mm256_add_pd`, never
//! a fused multiply-add — so each output element sees the identical
//! sequence of IEEE-754 roundings and the result is bit-identical to the
//! scalar path. No alignment beyond `f64`'s own is guaranteed for the
//! buffers (glibc's `malloc` gives 16 bytes on x86-64), so every load and
//! store is the unaligned form (`_mm256_loadu_pd`, `_mm256_storeu_pd`); a
//! 4-wide access may straddle a cache line. A scalar head peeled up to a
//! 32-byte boundary measured no faster on training, so none is taken.
//!
//! Every x86-64 build compiles the intrinsics in; they engage exactly when the
//! CPU reports AVX2 (detected once, at run time). Other targets always take
//! the scalar loops. [`force_scalar`] scopes the scalar path for bit-identity
//! tests.

#![allow(unsafe_code)] // audited: runtime-detection-gated intrinsic calls only, see no-unsafe rule

use std::cell::Cell;

thread_local! {
    /// Nesting depth of [`force_scalar`] scopes; > 0 disables intrinsics.
    static FORCE_SCALAR: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` with the intrinsics paths disabled on this thread (nestable,
/// panic-safe). Used by the bit-identity tests to compare scalar and vector
/// kernels inside one process.
pub fn force_scalar<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            FORCE_SCALAR.with(|c| c.set(c.get() - 1));
        }
    }
    FORCE_SCALAR.with(|c| c.set(c.get() + 1));
    let _guard = Guard;
    f()
}

/// Whether the vectorized paths will be taken by the calling thread.
pub fn enabled() -> bool {
    simd_available() && FORCE_SCALAR.with(Cell::get) == 0
}

#[cfg(target_arch = "x86_64")]
fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_available() -> bool {
    false
}

/// Shortest run the AVX2 paths take. A `#[target_feature]` function cannot
/// be inlined into its (non-AVX2) caller, so a shorter run is cheaper in the
/// inlined scalar loop than behind an out-of-line call.
#[cfg(target_arch = "x86_64")]
const AVX2_MIN_LEN: usize = 8;

/// A hoisted dispatch decision. [`enabled`] reads a thread-local and a
/// `OnceLock` — cheap once, but measurable when an inner loop issues many
/// short AXPYs (a shifted DCONV tap is one ~30-element run per row, a
/// `Conv4` kernel row one 30-element run per output element). Kernels call
/// [`Dispatch::capture`] once per plane/channel block and branch on the
/// captured bool instead, which the compiler keeps in a register.
#[derive(Clone, Copy)]
pub struct Dispatch {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    use_avx2: bool,
}

impl Dispatch {
    /// Snapshots [`enabled`] for the calling thread.
    #[inline]
    pub fn capture() -> Dispatch {
        Dispatch { use_avx2: enabled() }
    }

    /// `o[j] += a * x[j]` over the common length of `o` and `x`.
    #[inline]
    pub fn axpy(self, o: &mut [f64], x: &[f64], a: f64) {
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 && o.len().min(x.len()) >= AVX2_MIN_LEN {
            // SAFETY: use_avx2 implies AVX2 was detected at runtime.
            unsafe { avx2::axpy(o, x, a) };
            return;
        }
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov += a * xv;
        }
    }

    /// Four simultaneous AXPYs sharing one source row:
    /// `o[r][j] += a[r] * b[j]`. The shared `b` row is loaded once per `j`,
    /// which is what makes the 4-row-blocked matmul register-friendly.
    #[inline]
    pub fn axpy4(self, o: [&mut [f64]; 4], b: &[f64], a: [f64; 4]) {
        let [o0, o1, o2, o3] = o;
        let n = b.len().min(o0.len()).min(o1.len()).min(o2.len()).min(o3.len());
        // Explicit reslicing lets the compiler elide per-index bounds checks.
        let (b, o0, o1, o2, o3) = (&b[..n], &mut o0[..n], &mut o1[..n], &mut o2[..n], &mut o3[..n]);
        #[cfg(target_arch = "x86_64")]
        if self.use_avx2 && n >= AVX2_MIN_LEN {
            // SAFETY: use_avx2 implies AVX2 was detected at runtime.
            unsafe { avx2::axpy4([o0, o1, o2, o3], b, a) };
            return;
        }
        for j in 0..n {
            let bv = b[j];
            o0[j] += a[0] * bv;
            o1[j] += a[1] * bv;
            o2[j] += a[2] * bv;
            o3[j] += a[3] * bv;
        }
    }
}

/// `o[j] += a * x[j]` with a fresh per-call dispatch decision. Inner loops
/// should hoist via [`Dispatch::capture`] instead.
#[inline]
pub fn axpy(o: &mut [f64], x: &[f64], a: f64) {
    Dispatch::capture().axpy(o, x, a);
}

/// Four simultaneous AXPYs with a fresh per-call dispatch decision. Inner
/// loops should hoist via [`Dispatch::capture`] instead.
#[inline]
pub fn axpy4(o: [&mut [f64]; 4], b: &[f64], a: [f64; 4]) {
    Dispatch::capture().axpy4(o, b, a);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy(o: &mut [f64], x: &[f64], a: f64) {
        let n = o.len().min(x.len());
        let op = o.as_mut_ptr();
        let xp = x.as_ptr();
        // SAFETY: all accesses below stay within the first n elements of
        // `o` and `x`; mul+add per lane matches the scalar `a * x + o`.
        unsafe {
            let av = _mm256_set1_pd(a);
            let mut i = 0;
            while i + 4 <= n {
                let prod = _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i)));
                _mm256_storeu_pd(op.add(i), _mm256_add_pd(_mm256_loadu_pd(op.add(i)), prod));
                i += 4;
            }
            while i < n {
                *op.add(i) += a * *xp.add(i);
                i += 1;
            }
        }
    }

    /// # Safety
    /// Caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn axpy4(o: [&mut [f64]; 4], b: &[f64], a: [f64; 4]) {
        let [o0, o1, o2, o3] = o;
        let n = b.len().min(o0.len()).min(o1.len()).min(o2.len()).min(o3.len());
        let bp = b.as_ptr();
        let ops = [o0.as_mut_ptr(), o1.as_mut_ptr(), o2.as_mut_ptr(), o3.as_mut_ptr()];
        // SAFETY: all accesses stay within the first n elements of each
        // slice; per-row mul+add matches the scalar loop exactly.
        unsafe {
            let avs = [
                _mm256_set1_pd(a[0]),
                _mm256_set1_pd(a[1]),
                _mm256_set1_pd(a[2]),
                _mm256_set1_pd(a[3]),
            ];
            let mut j = 0;
            while j + 4 <= n {
                let bv = _mm256_loadu_pd(bp.add(j));
                for r in 0..4 {
                    let prod = _mm256_mul_pd(avs[r], bv);
                    _mm256_storeu_pd(
                        ops[r].add(j),
                        _mm256_add_pd(_mm256_loadu_pd(ops[r].add(j)), prod),
                    );
                }
                j += 4;
            }
            while j < n {
                let bv = *bp.add(j);
                for r in 0..4 {
                    *ops[r].add(j) += a[r] * bv;
                }
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ref_axpy(o: &mut [f64], x: &[f64], a: f64) {
        for (ov, &xv) in o.iter_mut().zip(x) {
            *ov += a * xv;
        }
    }

    #[test]
    fn axpy_matches_reference_bitwise() {
        for n in [0usize, 1, 3, 4, 7, 8, 33] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
            let mut o1: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
            let mut o2 = o1.clone();
            axpy(&mut o1, &x, 1.7e-3);
            ref_axpy(&mut o2, &x, 1.7e-3);
            for (a, b) in o1.iter().zip(o2.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn axpy4_matches_four_scalar_axpys_bitwise() {
        for n in [0usize, 1, 4, 5, 16, 29] {
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin()).collect();
            let a = [0.5, -1.25, 3.0e-4, 7.75];
            let mut rows: Vec<Vec<f64>> =
                (0..4).map(|r| (0..n).map(|i| ((i + r) as f64 * 0.19).cos()).collect()).collect();
            let mut expect = rows.clone();
            let [r0, r1, r2, r3] = &mut rows[..] else { unreachable!() };
            axpy4([r0, r1, r2, r3], &b, a);
            for (r, row) in expect.iter_mut().enumerate() {
                ref_axpy(row, &b, a[r]);
            }
            for (got, want) in rows.iter().zip(expect.iter()) {
                for (g, w) in got.iter().zip(want.iter()) {
                    assert_eq!(g.to_bits(), w.to_bits(), "n={n}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn default_build_dispatches_on_cpu_support() {
        assert_eq!(enabled(), std::arch::is_x86_feature_detected!("avx2"));
    }

    #[test]
    fn force_scalar_nests_and_restores() {
        let outer = enabled();
        force_scalar(|| {
            assert!(!enabled());
            force_scalar(|| assert!(!enabled()));
            assert!(!enabled());
        });
        assert_eq!(enabled(), outer);
    }
}
