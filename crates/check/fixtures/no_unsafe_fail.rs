//! no-unsafe failing fixture. Claimed outside the audited simd module both
//! unsafe lines are violations; claimed at `crates/tensor/src/simd.rs` only
//! the SAFETY-comment-less one is.

/// Writes with a justification comment (fine inside audited files only).
pub fn write_one(p: *mut f64) {
    // SAFETY: callers hold a live, exclusive allocation behind `p`.
    unsafe { *p = 1.0 };
}

/// Writes without any justification (a violation everywhere).
pub fn write_two(p: *mut f64) {
    unsafe { *p = 2.0 };
}
