//! no-unsafe passing fixture: claimed at `crates/tensor/src/simd.rs`,
//! where unsafe is permitted as long as every unsafe line carries a SAFETY
//! comment on the same line or within three lines above.
#![allow(unsafe_code)]

/// Writes 1.0 through an externally validated pointer.
pub fn write_one(p: *mut f64) {
    // SAFETY: callers hold a live, exclusive allocation behind `p`.
    unsafe { *p = 1.0 };
}

/// # Safety
/// Caller must pass a pointer into a live allocation of at least one f64.
#[inline]
pub unsafe fn read_one(p: *const f64) -> f64 {
    unsafe { *p } // SAFETY: contract documented on the enclosing fn.
}
