//! Shape arithmetic shared by the tensor and graph modules.
//!
//! Tensors are dense, row-major, and at most modest-dimensional (the PPN
//! workloads use rank 1–4), so shapes are plain `Vec<usize>` and all index
//! math is done eagerly here.

/// Highest tensor rank the stack-allocated index scratch covers; higher
/// ranks fall back to a heap allocation inside [`with_dims`].
pub const MAX_RANK: usize = 8;

/// Scratch capacity: broadcast walks need up to three `MAX_RANK`-sized
/// arrays (two stride sets plus an odometer index).
const STACK_DIMS: usize = 3 * MAX_RANK;

/// Number of elements implied by a shape. The empty shape denotes a scalar
/// and has one element.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// Runs `f` over an `n`-element zeroed `usize` scratch slice, stack-allocated
/// for `n <= 3 * MAX_RANK` so broadcast/permute inner paths stay free of
/// per-call heap traffic.
pub(crate) fn with_dims<R>(n: usize, f: impl FnOnce(&mut [usize]) -> R) -> R {
    if n <= STACK_DIMS {
        let mut buf = [0usize; STACK_DIMS];
        f(&mut buf[..n])
    } else {
        let mut buf = vec![0usize; n];
        f(&mut buf)
    }
}

/// Row-major strides for `shape`, written into a caller-provided slice of
/// the same length (allocation-free counterpart of [`strides`]).
pub fn strides_into(shape: &[usize], out: &mut [usize]) {
    debug_assert_eq!(shape.len(), out.len());
    let n = shape.len();
    if n == 0 {
        return;
    }
    out[n - 1] = 1;
    for i in (0..n - 1).rev() {
        out[i] = out[i + 1] * shape[i + 1];
    }
}

/// Row-major strides for `shape`.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    strides_into(shape, &mut s);
    s
}

/// Flat offset of a multi-index under row-major layout.
///
/// Panics in debug builds if the index is out of bounds.
pub fn offset(shape: &[usize], idx: &[usize]) -> usize {
    debug_assert_eq!(shape.len(), idx.len());
    let st = strides(shape);
    let mut off = 0;
    for (d, (&i, &s)) in idx.iter().zip(st.iter()).enumerate() {
        debug_assert!(i < shape[d], "index {i} out of bounds for dim {d} of {shape:?}");
        off += i * s;
    }
    off
}

/// NumPy-style broadcast of two shapes.
///
/// Shapes are aligned at the trailing dimension; each pair of dims must be
/// equal or one of them 1. Returns the broadcast shape, or `None` if the
/// shapes are incompatible.
pub fn broadcast(a: &[usize], b: &[usize]) -> Option<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() { 1 } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { 1 } else { b[i - (rank - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            return None;
        };
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(strides(&[2, 3, 4]), vec![12, 4, 1]);
        assert_eq!(strides(&[5]), vec![1]);
        assert_eq!(strides(&[]), Vec::<usize>::new());
    }

    #[test]
    fn offset_matches_manual() {
        assert_eq!(offset(&[2, 3, 4], &[1, 2, 3]), 12 + 8 + 3);
        assert_eq!(offset(&[7], &[6]), 6);
    }

    #[test]
    fn broadcast_rules() {
        assert_eq!(broadcast(&[2, 3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast(&[2, 1], &[1, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast(&[3], &[2, 3]), Some(vec![2, 3]));
        assert_eq!(broadcast(&[], &[4]), Some(vec![4]));
        assert_eq!(broadcast(&[2, 3], &[3, 2]), None);
    }

    #[test]
    fn numel_scalar_is_one() {
        assert_eq!(numel(&[]), 1);
        assert_eq!(numel(&[2, 0, 4]), 0);
    }

    #[test]
    fn strides_into_matches_strides() {
        for shape in [vec![], vec![5], vec![2, 3, 4], vec![1, 1, 7, 2]] {
            let mut out = vec![9usize; shape.len()];
            strides_into(&shape, &mut out);
            assert_eq!(out, strides(&shape), "{shape:?}");
        }
    }

    #[test]
    fn with_dims_zeroes_and_sizes_scratch() {
        // Stack path.
        with_dims(5, |s| {
            assert_eq!(s.len(), 5);
            assert!(s.iter().all(|&v| v == 0));
        });
        // Heap fallback beyond the stack capacity.
        with_dims(STACK_DIMS + 3, |s| {
            assert_eq!(s.len(), STACK_DIMS + 3);
            assert!(s.iter().all(|&v| v == 0));
        });
    }
}
