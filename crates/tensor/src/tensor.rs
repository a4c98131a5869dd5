//! Dense row-major `f64` tensor.
//!
//! This is the value type flowing through the autodiff graph. It is
//! deliberately simple: owned [`Storage`], eager ops, no views. The PPN
//! workloads are small (m ≤ 64 assets, k = 30 periods, ≤ 16 channels), so
//! clarity and testability win over zero-copy cleverness — but the backing
//! store and the matmul inner loop are tuned (arena reuse, register
//! blocking; see [`crate::storage`] and [`crate::simd`]) because they
//! dominate every trainer step.

use crate::shape::{self, broadcast, numel};
use crate::storage::Storage;

/// Per-output-dim source strides for a broadcast operand, written into
/// `dst` (length `out.len()`): 0 where the operand's dim is 1 (or absent),
/// its row-major stride otherwise. Allocation-free: `dst` comes from the
/// caller's [`shape::with_dims`] scratch.
fn broadcast_strides_into(src: &[usize], out: &[usize], dst: &mut [usize]) {
    debug_assert_eq!(dst.len(), out.len());
    let skip = out.len() - src.len();
    for d in dst[..skip].iter_mut() {
        *d = 0;
    }
    shape::strides_into(src, &mut dst[skip..]);
    for (d, &s) in dst[skip..].iter_mut().zip(src) {
        if s == 1 {
            *d = 0;
        }
    }
}
use rand::Rng;
use serde::{Deserialize, Error, Ser, Serialize, Value};
use std::fmt;
use std::sync::OnceLock;

/// A dense, row-major, `f64` n-dimensional array.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Storage,
}

impl Tensor {
    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            numel(shape),
            data.len(),
            "shape {:?} wants {} elements, got {}",
            shape,
            numel(shape),
            data.len()
        );
        Tensor { shape: shape.to_vec(), data: Storage::from_slice(&data) }
    }

    /// Builds a tensor directly over an arena buffer (internal fast path;
    /// callers must have sized the buffer to the shape).
    pub(crate) fn from_storage(shape: &[usize], data: Storage) -> Self {
        debug_assert_eq!(numel(shape), data.len());
        Tensor { shape: shape.to_vec(), data }
    }

    /// A scalar tensor (empty shape).
    pub fn scalar(v: f64) -> Self {
        Tensor { shape: vec![], data: Storage::filled(1, v) }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: Storage::zeroed(numel(shape)) }
    }

    /// All-ones tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: &[usize], v: f64) -> Self {
        Tensor { shape: shape.to_vec(), data: Storage::filled(numel(shape), v) }
    }

    /// Standard-normal-filled tensor scaled by `std`.
    pub fn randn<R: Rng>(rng: &mut R, shape: &[usize], std: f64) -> Self {
        let n = numel(shape);
        let mut data = Storage::uninit(n);
        // Box–Muller; rand 0.8's Standard distribution gives uniforms. Each
        // pair of draws fills two elements (an odd tail drops the sine).
        for pair in data.chunks_mut(2) {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            pair[0] = r * theta.cos() * std;
            if let Some(second) = pair.get_mut(1) {
                *second = r * theta.sin() * std;
            }
        }
        Tensor { shape: shape.to_vec(), data }
    }

    /// Shape of the tensor. Empty slice means scalar.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view of the buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value of a scalar tensor (or any single-element tensor).
    ///
    /// # Panics
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f64 {
        assert_eq!(self.data.len(), 1, "item() on tensor of shape {:?}", self.shape);
        self.data[0]
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f64 {
        self.data[shape::offset(&self.shape, idx)]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    /// Panics if element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(numel(shape), self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        Tensor { shape: shape.to_vec(), data: self.data.clone() }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        let mut data = Storage::uninit(self.data.len());
        for (d, &x) in data.iter_mut().zip(self.data.iter()) {
            *d = f(x);
        }
        Tensor { shape: self.shape.clone(), data }
    }

    /// Elementwise binary op with NumPy-style broadcasting.
    ///
    /// # Panics
    /// Panics if shapes are not broadcast-compatible.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        if self.shape == other.shape {
            let mut data = Storage::uninit(self.data.len());
            for (d, (&a, &b)) in data.iter_mut().zip(self.data.iter().zip(other.data.iter())) {
                *d = f(a, b);
            }
            return Tensor { shape: self.shape.clone(), data };
        }
        let out_shape = broadcast(&self.shape, &other.shape)
            // ppn-check: allow(no-panic) documented precondition — see `# Panics` above
            .unwrap_or_else(|| panic!("broadcast {:?} vs {:?}", self.shape, other.shape));
        // Odometer walk with per-dim source strides (0 on broadcast dims):
        // no per-element index vectors, single pass over the output. The
        // stride/index scratch lives on the stack (rank ≤ MAX_RANK).
        let rank = out_shape.len();
        let n = numel(&out_shape);
        let mut data = Storage::uninit(n);
        shape::with_dims(3 * rank, |scratch| {
            let (sa, rest) = scratch.split_at_mut(rank);
            let (sb, idx) = rest.split_at_mut(rank);
            broadcast_strides_into(&self.shape, &out_shape, sa);
            broadcast_strides_into(&other.shape, &out_shape, sb);
            let mut oa = 0usize;
            let mut ob = 0usize;
            for out in data.iter_mut() {
                *out = f(self.data[oa], other.data[ob]);
                // Advance the odometer, updating offsets incrementally.
                for d in (0..rank).rev() {
                    idx[d] += 1;
                    oa += sa[d];
                    ob += sb[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    oa -= sa[d] * idx[d];
                    ob -= sb[d] * idx[d];
                    idx[d] = 0;
                }
            }
        });
        Tensor { shape: out_shape, data }
    }

    /// In-place elementwise addition of a same-shape tensor; the
    /// allocation-free gradient-accumulation path (bit-identical to
    /// `self.add(other)` for equal shapes).
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self[i] = f(self[i], other[i])` over a same-shape tensor:
    /// the allocation-free form of [`Tensor::zip`] for backward arms that
    /// own their gradient.
    pub(crate) fn zip_assign(&mut self, other: &Tensor, f: impl Fn(f64, f64) -> f64) {
        debug_assert_eq!(self.shape, other.shape, "zip_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// In-place `self[i] = f(self[i])`: the allocation-free form of
    /// [`Tensor::map`].
    pub(crate) fn map_assign(&mut self, f: impl Fn(f64) -> f64) {
        for a in self.data.iter_mut() {
            *a = f(*a);
        }
    }

    /// [`Tensor::reshape`] that keeps the buffer instead of copying it.
    pub(crate) fn into_shape(self, shape: &[usize]) -> Tensor {
        assert_eq!(numel(shape), self.data.len(), "reshape {:?} -> {:?}", self.shape, shape);
        Tensor { shape: shape.to_vec(), data: self.data }
    }

    /// Elementwise addition (broadcasting).
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction (broadcasting).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise multiplication (broadcasting).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip(other, |a, b| a * b)
    }

    /// Scales every element.
    pub fn scale(&self, s: f64) -> Tensor {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Zero for empty tensors.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Maximum element. `NEG_INFINITY` for empty tensors.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum element. `INFINITY` for empty tensors.
    pub fn min(&self) -> f64 {
        self.data.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// 2-D matrix multiplication: `(n,k) x (k,m) -> (n,m)`.
    ///
    /// Runs on the calling thread, cache-blocked over `k` and four rows at a
    /// time (see `matmul_rows`). Every output element accumulates over `k`
    /// in ascending order, so the result is bit-identical to the naive
    /// triple loop.
    ///
    /// # Panics
    /// Panics unless both operands are rank 2 with matching inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul lhs rank {:?}", self.shape);
        assert_eq!(other.rank(), 2, "matmul rhs rank {:?}", other.shape);
        let (n, k) = (self.shape[0], self.shape[1]);
        let (k2, m) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dims {:?} x {:?}", self.shape, other.shape);
        let timer = kernel_timer();
        let mut out = Storage::zeroed(n * m);
        matmul_rows(&self.data, &other.data, &mut out, k, m);
        MATMUL_MS.observe_since(timer);
        Tensor { shape: vec![n, m], data: out }
    }

    /// 2-D transpose.
    ///
    /// # Panics
    /// Panics unless the tensor is rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 on {:?}", self.shape);
        let (n, m) = (self.shape[0], self.shape[1]);
        let mut out = Storage::uninit(n * m);
        for i in 0..n {
            for j in 0..m {
                out[j * n + i] = self.data[i * m + j];
            }
        }
        Tensor { shape: vec![m, n], data: out }
    }

    /// General axis permutation. `perm` must be a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permute {:?} on {:?}", perm, self.shape);
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let rank = perm.len();
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        // Walk the output in order; the source offset follows an odometer
        // with strides permuted from the input layout. All stride/index
        // scratch is stack-allocated.
        let n = self.data.len();
        let mut data = Storage::uninit(n);
        shape::with_dims(3 * rank, |scratch| {
            let (in_strides, rest) = scratch.split_at_mut(rank);
            let (src_strides, idx) = rest.split_at_mut(rank);
            shape::strides_into(&self.shape, in_strides);
            for (d, &p) in perm.iter().enumerate() {
                src_strides[d] = in_strides[p];
            }
            let mut off = 0usize;
            for out in data.iter_mut() {
                *out = self.data[off];
                for d in (0..rank).rev() {
                    idx[d] += 1;
                    off += src_strides[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    off -= src_strides[d] * idx[d];
                    idx[d] = 0;
                }
            }
        });
        Tensor { shape: out_shape, data }
    }

    /// Reduces one axis by summation, removing it from the shape.
    pub fn sum_axis(&self, axis: usize) -> Tensor {
        assert!(axis < self.rank(), "sum_axis {axis} on {:?}", self.shape);
        let mut out_shape = self.shape.clone();
        out_shape.remove(axis);
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out = Storage::zeroed(outer * inner);
        for o in 0..outer {
            for m in 0..mid {
                let src = &self.data[(o * mid + m) * inner..(o * mid + m + 1) * inner];
                let dst = &mut out[o * inner..(o + 1) * inner];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
        Tensor { shape: out_shape, data: out }
    }

    /// L2 norm of the whole buffer.
    pub fn l2_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Sums this tensor down to `target` shape, inverting a broadcast: the
    /// gradient counterpart of [`Tensor::zip`]'s broadcasting.
    ///
    /// # Panics
    /// Panics if `target` does not broadcast to this tensor's shape.
    pub fn reduce_broadcast(&self, target: &[usize]) -> Tensor {
        if self.shape == target {
            return self.clone();
        }
        assert_eq!(
            broadcast(target, &self.shape).as_deref(),
            Some(&self.shape[..]),
            "reduce_broadcast {:?} -> {target:?}",
            self.shape
        );
        let rank = self.shape.len();
        let mut out = Storage::zeroed(numel(target));
        shape::with_dims(2 * rank, |scratch| {
            let (st, idx) = scratch.split_at_mut(rank);
            broadcast_strides_into(target, &self.shape, st);
            let mut off = 0usize;
            for &v in self.data.iter() {
                out[off] += v;
                for d in (0..rank).rev() {
                    idx[d] += 1;
                    off += st[d];
                    if idx[d] < self.shape[d] {
                        break;
                    }
                    off -= st[d] * idx[d];
                    idx[d] = 0;
                }
            }
        });
        Tensor { shape: target.to_vec(), data: out }
    }

    /// Max absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }
}

/// Histogram buckets (milliseconds) shared by the per-kernel timers.
pub(crate) const KERNEL_MS_BUCKETS: [f64; 9] = [0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0];

/// Starts a wall-clock timer when the metrics registry is live; `None`
/// keeps the disabled path free of even the `Instant::now` call.
pub(crate) fn kernel_timer() -> Option<std::time::Instant> {
    ppn_obs::metrics_enabled().then(ppn_obs::clock::now)
}

/// A per-kernel duration histogram (ms) in the `ppn_obs` registry. The
/// handle is looked up once and cached, so a kernel call does not take the
/// registry's lock, allocate the name or hash it.
pub(crate) struct KernelHistogram {
    name: &'static str,
    handle: OnceLock<ppn_obs::metrics::Histogram>,
}

impl KernelHistogram {
    const fn new(name: &'static str) -> Self {
        KernelHistogram { name, handle: OnceLock::new() }
    }

    /// Records the time since `timer` started (nothing when it is `None`).
    pub(crate) fn observe_since(&self, timer: Option<std::time::Instant>) {
        if let Some(t0) = timer {
            let h = self.handle.get_or_init(|| ppn_obs::histogram(self.name, &KERNEL_MS_BUCKETS));
            h.observe(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
}

/// Every [`Tensor::matmul`].
pub(crate) static MATMUL_MS: KernelHistogram = KernelHistogram::new("tensor.matmul_ms");
/// Every conv node: its forward, or its backward's grad-x and grad-w
/// together.
pub(crate) static CONV_MS: KernelHistogram = KernelHistogram::new("tensor.conv_ms");
/// The three conv kernels, one observation per call.
pub(crate) static CONV_FWD_MS: KernelHistogram = KernelHistogram::new("tensor.conv_fwd_ms");
pub(crate) static CONV_GRAD_X_MS: KernelHistogram = KernelHistogram::new("tensor.conv_grad_x_ms");
pub(crate) static CONV_GRAD_W_MS: KernelHistogram = KernelHistogram::new("tensor.conv_grad_w_ms");

/// Computes `a (n,k) × b (k,m)` into the zeroed `out` (`n × m`,
/// row-major), i-k-j order with two levels of blocking:
///
/// * `k` is tiled (`K_TILE`) so a panel of `b` stays cache-hot across the
///   row sweep,
/// * rows are processed four at a time so each loaded `b` row feeds four
///   accumulator rows ([`crate::simd::axpy4`]), which keeps the unit-stride
///   inner loop register-bound instead of load-bound.
///
/// Every output element still accumulates over `k` in ascending order —
/// blocking only reorders *which element* is updated next, never the term
/// order within an element — so results are bit-identical to the naive
/// triple loop at any block size or SIMD setting.
fn matmul_rows(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize) {
    const K_TILE: usize = 64;
    if m == 0 {
        return;
    }
    // One dispatch decision per call, hoisted out of the k-tile loops.
    let simd = crate::simd::Dispatch::capture();
    let rows = out.len() / m;
    let mut kb = 0;
    while kb < k {
        let ke = (kb + K_TILE).min(k);
        let mut r = 0;
        while r + 4 <= rows {
            // Four disjoint output rows, one shared b panel.
            let (quad, _) = out[r * m..].split_at_mut(4 * m);
            let (o0, rest) = quad.split_at_mut(m);
            let (o1, rest) = rest.split_at_mut(m);
            let (o2, o3) = rest.split_at_mut(m);
            let a0 = &a[r * k..(r + 1) * k];
            let a1 = &a[(r + 1) * k..(r + 2) * k];
            let a2 = &a[(r + 2) * k..(r + 3) * k];
            let a3 = &a[(r + 3) * k..(r + 4) * k];
            for kk in kb..ke {
                let brow = &b[kk * m..(kk + 1) * m];
                simd.axpy4(
                    [&mut *o0, &mut *o1, &mut *o2, &mut *o3],
                    brow,
                    [a0[kk], a1[kk], a2[kk], a3[kk]],
                );
            }
            r += 4;
        }
        while r < rows {
            let arow = &a[r * k..(r + 1) * k];
            let orow = &mut out[r * m..(r + 1) * m];
            for kk in kb..ke {
                simd.axpy(orow, &b[kk * m..(kk + 1) * m], arow[kk]);
            }
            r += 1;
        }
        kb = ke;
    }
}

// Manual serde impls (the derive macro only handles Vec-backed fields):
// same JSON shape as the old `#[derive]` — `{"shape":[...],"data":[...]}` —
// so existing checkpoints round-trip unchanged.
impl Serialize for Tensor {
    fn serialize(&self, s: &mut Ser) {
        s.begin_obj();
        s.key("shape");
        self.shape.serialize(s);
        s.key("data");
        s.begin_arr();
        for &v in self.data.iter() {
            s.elem();
            s.write_f64(v);
        }
        s.end_arr();
        s.end_obj();
    }
}

impl Deserialize for Tensor {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let shape = Vec::<usize>::deserialize(v.field("shape")?)?;
        let data = Vec::<f64>::deserialize(v.field("data")?)?;
        if numel(&shape) != data.len() {
            return Err(Error::msg(format!(
                "tensor shape {:?} wants {} elements, got {}",
                shape,
                numel(&shape),
                data.len()
            )));
        }
        Ok(Tensor { shape, data: Storage::from_slice(&data) })
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(f, " [{:.4}, {:.4}, …; n={}]", self.data[0], self.data[1], self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_len_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0]);
    }

    #[test]
    fn broadcasting_add() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let row = Tensor::from_vec(&[3], vec![10., 20., 30.]);
        let r = a.add(&row);
        assert_eq!(r.data(), &[11., 22., 33., 14., 25., 36.]);
        let col = Tensor::from_vec(&[2, 1], vec![100., 200.]);
        let r = a.add(&col);
        assert_eq!(r.data(), &[101., 102., 103., 204., 205., 206.]);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(&[3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
        let i = Tensor::from_vec(&[2, 2], vec![1., 0., 0., 1.]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose2().transpose2(), a);
        assert_eq!(a.transpose2().at(&[2, 1]), 6.0);
    }

    #[test]
    fn permute_matches_transpose() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.permute(&[1, 0]), a.transpose2());
        let b = Tensor::from_vec(&[1, 2, 3], (0..6).map(|x| x as f64).collect());
        let p = b.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[3, 1, 2]);
        assert_eq!(p.at(&[2, 0, 1]), b.at(&[0, 1, 2]));
    }

    #[test]
    fn sum_axis_reduces() {
        let a = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_axis(0).data(), &[5., 7., 9.]);
        assert_eq!(a.sum_axis(1).data(), &[6., 15.]);
        assert_eq!(a.sum_axis(1).sum_axis(0).item(), 21.0);
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = Tensor::randn(&mut rng, &[10_000], 1.0);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(&[3], vec![3.0, -4.0, 0.0]);
        assert_eq!(t.l2_norm(), 5.0);
    }
}
